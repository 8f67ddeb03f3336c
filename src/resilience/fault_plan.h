/**
 * @file
 * Deterministic fault injection for the supervised execution layer.
 *
 * A FaultPlan is a parsed list of fault clauses that the runtime
 * consults at well-defined hook points: task launch (artificial
 * delays), result-store writes (corruption, truncation aka
 * crash-mid-write) and trace-sink construction (allocation failure).
 * Injection is a pure function of the hook's identity — task name,
 * save ordinal — never of wall-clock time or a free-running RNG, so
 * a failing resilience test replays exactly.
 *
 * Plans parse from a spec string (the JSMT_FAULT_PLAN environment
 * variable feeds the process-wide plan). Grammar: comma-separated
 * clauses
 *
 *   task-delay=MATCH@MS   tasks whose name contains MATCH sleep MS
 *                         milliseconds at their start; a deadline
 *                         that fires meanwhile fails the task
 *   spill-corrupt=N       every Nth spill save is corrupted in
 *                         place after the atomic rename (bitrot)
 *   spill-truncate=N      every Nth spill save crashes mid-write:
 *                         a truncated .tmp is left behind and the
 *                         rename never happens
 *   sink-alloc            trace-sink ring allocation fails; the
 *                         sink degrades to permanently disabled
 *
 * MATCH is a case-sensitive substring; "*" matches every task.
 */

#ifndef JSMT_RESILIENCE_FAULT_PLAN_H
#define JSMT_RESILIENCE_FAULT_PLAN_H

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace jsmt::resilience {

/** Kinds of injectable faults. */
enum class FaultKind : std::size_t {
    kTaskDelay = 0,
    kSpillCorrupt,
    kSpillTruncate,
    kSinkAlloc,
    kNumKinds,
};

/** @return stable lowercase name of @p kind (metrics, logs). */
const char* faultKindName(FaultKind kind);

/**
 * The parsed plan. Query methods are const and thread-safe; the
 * per-instance injection counters are atomics.
 */
class FaultPlan
{
  public:
    /** An empty plan injects nothing. */
    FaultPlan() = default;

    FaultPlan(const FaultPlan&) = delete;
    FaultPlan& operator=(const FaultPlan&) = delete;

    /**
     * Parse @p spec into @p out.
     * @return false (with @p error filled when non-null) on a
     * malformed clause; @p out is then left empty.
     */
    static bool parse(const std::string& spec, FaultPlan* out,
                      std::string* error = nullptr);

    /**
     * Process-wide plan, parsed once from JSMT_FAULT_PLAN. A
     * malformed spec warns and yields the empty plan (injection is
     * a test harness, never worth killing a real run over).
     */
    static const FaultPlan& global();

    /** @return whether any clause is armed. */
    bool empty() const { return _rules.empty(); }

    /** @return canonical one-line description of the plan. */
    std::string describe() const;

    /**
     * Artificial start-up delay of task @p name, in
     * milliseconds (0 = none). Counts the injection when nonzero.
     */
    std::uint64_t taskDelayMs(const std::string& name) const;

    /**
     * Spill-save hook: called with the 1-based ordinal of a spill
     * save. kNone = save normally; kCorrupt = save then corrupt the
     * file in place; kTruncate = crash mid-write (truncated .tmp,
     * no rename). Counts the injection when not kNone.
     */
    enum class SpillFault { kNone, kCorrupt, kTruncate };
    SpillFault spillFault(std::uint64_t save_ordinal) const;

    /** @return next spill-save ordinal (per-plan, 1-based). */
    std::uint64_t nextSpillOrdinal() const
    {
        return _spillSaves.fetch_add(1,
                                     std::memory_order_relaxed) +
               1;
    }

    /**
     * Should the trace sink's ring allocation fail? Counts the
     * injection when true.
     */
    bool shouldFailSinkAllocation() const;

    /** @return injections of @p kind by this plan instance. */
    std::uint64_t injected(FaultKind kind) const;

    /** @return process-wide injections of every kind. */
    static std::uint64_t totalInjectedAll();

  private:
    struct Rule
    {
        FaultKind kind = FaultKind::kTaskDelay;
        std::string match; ///< task-name substring ("*" = any).
        std::uint64_t value = 0; ///< N or MS, per the grammar.
    };

    void count(FaultKind kind) const;

    std::vector<Rule> _rules;
    mutable std::atomic<std::uint64_t> _spillSaves{0};
    mutable std::array<std::atomic<std::uint64_t>,
                       static_cast<std::size_t>(
                           FaultKind::kNumKinds)>
        _injected{};
};

} // namespace jsmt::resilience

#endif // JSMT_RESILIENCE_FAULT_PLAN_H
