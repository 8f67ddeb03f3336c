#include "jvm/profile.h"

#include "common/log.h"

namespace jsmt {

namespace {

void
checkFraction(double value, const std::string& what,
              const std::string& profile_name)
{
    // Written so NaN fails too: fractions feed Rng::threshold(),
    // whose exact equivalence with chance() assumes a number.
    if (!(value >= 0.0 && value <= 1.0))
        fatal("profile " + profile_name + ": " + what +
              " must be in [0,1]");
}

} // namespace

const WorkloadProfile&
WorkloadProfile::validate() const
{
    checkFraction(loadFrac, "loadFrac", name);
    checkFraction(storeFrac, "storeFrac", name);
    checkFraction(fpFrac, "fpFrac", name);
    checkFraction(branchFrac, "branchFrac", name);
    if (loadFrac + storeFrac + fpFrac + branchFrac > 1.0)
        fatal("profile " + name + ": µop mix exceeds 1.0");
    checkFraction(mispredictRate, "mispredictRate", name);
    checkFraction(codeJumpLocal, "codeJumpLocal", name);
    checkFraction(traceDiversity, "traceDiversity", name);
    checkFraction(privateFrac, "privateFrac", name);
    checkFraction(hotFrac, "hotFrac", name);
    checkFraction(warmFrac, "warmFrac", name);
    if (hotFrac + warmFrac > 1.0)
        fatal("profile " + name + ": hotFrac + warmFrac exceeds 1");
    if (warmBytes == 0)
        fatal("profile " + name + ": warmBytes must be positive");
    checkFraction(sweepFrac, "sweepFrac", name);
    checkFraction(crossThreadFrac, "crossThreadFrac", name);
    if (uopsPerThread == 0)
        fatal("profile " + name + ": uopsPerThread must be positive");
    if (defaultThreads == 0)
        fatal("profile " + name + ": needs at least one thread");
    if (codeLines == 0)
        fatal("profile " + name + ": codeLines must be positive");
    if (codeMeanRun <= 0.0)
        fatal("profile " + name + ": codeMeanRun must be positive");
    if (codeLoopWindow == 0)
        fatal("profile " + name + ": codeLoopWindow must be positive");
    if (codeBytesPerLine < 64 || codeBytesPerLine % 64 != 0)
        fatal("profile " + name + ": codeBytesPerLine must be a "
              "positive multiple of 64");
    if (privateBytes == 0 || sharedBytes == 0)
        fatal("profile " + name + ": footprints must be positive");
    if (hotBytes == 0)
        fatal("profile " + name + ": hotBytes must be positive");
    if (sweepStride == 0)
        fatal("profile " + name + ": sweepStride must be positive");
    if (meanDepDist < 1.0)
        fatal("profile " + name + ": meanDepDist must be >= 1");
    if (allocBytesPerUop < 0.0 || gcUopsPerByte < 0.0)
        fatal("profile " + name + ": negative GC parameters");
    if (gcThresholdBytes == 0)
        fatal("profile " + name + ": gcThresholdBytes must be "
              "positive");
    return *this;
}

WorkloadProfile
kernelProfile()
{
    WorkloadProfile p;
    p.name = "kernel";
    p.uopsPerThread = 1; // Unused: driven by injected kernel work.
    p.loadFrac = 0.30;
    p.storeFrac = 0.15;
    p.fpFrac = 0.0;
    p.branchFrac = 0.20;
    p.meanDepDist = 2.5;      // Pointer chasing: low ILP.
    p.mispredictRate = 0.07;
    p.codeLines = 560;        // Hot kernel paths; flat-ish profile.
    p.codeMeanRun = 4.0;
    p.codeJumpLocal = 0.85;   // Poorer locality than app code.
    p.codeLoopWindow = 128;
    p.traceDiversity = 0.004;
    p.privateBytes = 16 * 1024;   // Kernel stacks.
    // Kernel data structures (task structs, page tables, dcache)
    // are scattered over far more memory than the L2 covers; the
    // cold tier makes context switching pollute the L2, which is
    // what differentiates the time-sliced HT-off runs in Figure 5.
    p.sharedBytes = 2 * 1024 * 1024;
    p.privateFrac = 0.3;
    p.hotFrac = 0.80;
    p.hotBytes = 4 * 1024;
    p.warmFrac = 0.08;
    p.warmBytes = 32 * 1024;
    p.sweepFrac = 0.0;
    p.allocBytesPerUop = 0.0;
    p.validate();
    return p;
}

} // namespace jsmt
