#include "resilience/fault_plan.h"

#include "common/env.h"
#include "common/log.h"

namespace jsmt::resilience {

namespace {

constexpr std::size_t kNumKinds =
    static_cast<std::size_t>(FaultKind::kNumKinds);

/** Process-wide injection totals, summed over every plan. */
std::array<std::atomic<std::uint64_t>, kNumKinds> g_injected{};

bool
matches(const std::string& pattern, const std::string& name)
{
    return pattern == "*" || name.find(pattern) != std::string::npos;
}

} // namespace

const char*
faultKindName(FaultKind kind)
{
    switch (kind) {
      case FaultKind::kTaskDelay:
        return "task-delay";
      case FaultKind::kSpillCorrupt:
        return "spill-corrupt";
      case FaultKind::kSpillTruncate:
        return "spill-truncate";
      case FaultKind::kSinkAlloc:
        return "sink-alloc";
      case FaultKind::kNumKinds:
        break;
    }
    return "unknown";
}

bool
FaultPlan::parse(const std::string& spec, FaultPlan* out,
                 std::string* error)
{
    out->_rules.clear();
    const auto fail = [&](const std::string& message) {
        out->_rules.clear();
        if (error != nullptr)
            *error = message;
        return false;
    };

    std::size_t begin = 0;
    while (begin <= spec.size()) {
        std::size_t end = spec.find(',', begin);
        if (end == std::string::npos)
            end = spec.size();
        const std::string clause = spec.substr(begin, end - begin);
        begin = end + 1;
        if (clause.empty()) {
            if (end == spec.size())
                break;
            continue;
        }

        Rule rule;
        const std::size_t eq = clause.find('=');
        const std::string kind = clause.substr(0, eq);
        const std::string args =
            eq == std::string::npos ? "" : clause.substr(eq + 1);
        if (kind == "sink-alloc") {
            if (!args.empty())
                return fail("sink-alloc takes no argument");
            rule.kind = FaultKind::kSinkAlloc;
        } else if (kind == "spill-corrupt" ||
                   kind == "spill-truncate") {
            rule.kind = kind == "spill-corrupt"
                            ? FaultKind::kSpillCorrupt
                            : FaultKind::kSpillTruncate;
            if (!parseUint(args, &rule.value) || rule.value == 0) {
                return fail(kind +
                            " needs a positive period, got '" +
                            args + "'");
            }
        } else if (kind == "task-delay") {
            rule.kind = FaultKind::kTaskDelay;
            const std::size_t at = args.rfind('@');
            if (at == std::string::npos || at == 0) {
                return fail(kind + " needs MATCH@N, got '" + args +
                            "'");
            }
            rule.match = args.substr(0, at);
            if (!parseUint(args.substr(at + 1), &rule.value) ||
                rule.value == 0) {
                return fail(kind + " needs a positive N, got '" +
                            args + "'");
            }
        } else {
            return fail("unknown fault kind '" + kind + "'");
        }
        out->_rules.push_back(std::move(rule));
        if (end == spec.size())
            break;
    }
    return true;
}

const FaultPlan&
FaultPlan::global()
{
    static const FaultPlan* plan = [] {
        auto* p = new FaultPlan();
        const std::string spec = envString("JSMT_FAULT_PLAN");
        if (!spec.empty()) {
            std::string error;
            if (!FaultPlan::parse(spec, p, &error)) {
                warn("JSMT_FAULT_PLAN='" + spec + "': " + error +
                     "; injecting nothing");
            } else if (!p->empty()) {
                warn("fault injection armed: " + p->describe());
            }
        }
        return p;
    }();
    return *plan;
}

std::string
FaultPlan::describe() const
{
    if (_rules.empty())
        return "(empty)";
    std::string out;
    for (const Rule& rule : _rules) {
        if (!out.empty())
            out += ',';
        out += faultKindName(rule.kind);
        if (!rule.match.empty()) {
            out += '=';
            out += rule.match;
        }
        if (rule.kind != FaultKind::kSinkAlloc) {
            out += '@';
            out += std::to_string(rule.value);
        }
    }
    return out;
}

void
FaultPlan::count(FaultKind kind) const
{
    const std::size_t index = static_cast<std::size_t>(kind);
    _injected[index].fetch_add(1, std::memory_order_relaxed);
    g_injected[index].fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t
FaultPlan::taskDelayMs(const std::string& name) const
{
    for (const Rule& rule : _rules) {
        if (rule.kind == FaultKind::kTaskDelay &&
            matches(rule.match, name)) {
            count(FaultKind::kTaskDelay);
            return rule.value;
        }
    }
    return 0;
}

FaultPlan::SpillFault
FaultPlan::spillFault(std::uint64_t save_ordinal) const
{
    for (const Rule& rule : _rules) {
        if (rule.kind != FaultKind::kSpillCorrupt &&
            rule.kind != FaultKind::kSpillTruncate) {
            continue;
        }
        if (save_ordinal % rule.value == 0) {
            count(rule.kind);
            return rule.kind == FaultKind::kSpillCorrupt
                       ? SpillFault::kCorrupt
                       : SpillFault::kTruncate;
        }
    }
    return SpillFault::kNone;
}

bool
FaultPlan::shouldFailSinkAllocation() const
{
    for (const Rule& rule : _rules) {
        if (rule.kind == FaultKind::kSinkAlloc) {
            count(FaultKind::kSinkAlloc);
            return true;
        }
    }
    return false;
}

std::uint64_t
FaultPlan::injected(FaultKind kind) const
{
    return _injected[static_cast<std::size_t>(kind)].load(
        std::memory_order_relaxed);
}

std::uint64_t
FaultPlan::totalInjectedAll()
{
    std::uint64_t sum = 0;
    for (const auto& counter : g_injected)
        sum += counter.load(std::memory_order_relaxed);
    return sum;
}

} // namespace jsmt::resilience
