/**
 * @file
 * The benchmark's three workloads, driven through the library's
 * public API only, and the per-request ledger they fill.
 *
 * Each workload is a fixed request sequence generated from the seed:
 * a cycle of requests with a fixed composition over fixed operators,
 * shuffled per cycle on the service workloads, with right-hand-side
 * scales drawn per request. A window always ends on a cycle boundary,
 * so every run measures the same mix and different seeds differ in
 * order and data, not in how many expensive requests they hold.
 */

#ifndef AA_PERFBENCH_WORKLOADS_HH
#define AA_PERFBENCH_WORKLOADS_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "aa/analog/solver.hh"
#include "aa/service/service.hh"
#include "ledger.hh"

namespace aa::perfbench {

/** Everything the benchmark keeps about one request. */
struct RequestRecord {
    std::uint64_t seq = 0;
    std::string pattern;   ///< workload-local pattern label
    double latency_s = 0.0; ///< submit to answer, benchmark clock
    Claim claim;
    double rel_residual = 0.0; ///< recomputed by the checker
    Verdict verdict = Verdict::Failed;

    // What the program returned (SolveResponse / RefineOutcome).
    service::SolveLane lane = service::SolveLane::None;
    bool degraded = false;
    double chip_s = 0.0; ///< modelled analog seconds
    double queue_s = 0.0;
    double service_s = 0.0;
    analog::SolvePhaseReport phases;
    std::size_t attempts = 0;
    std::size_t passes = 0;
    std::size_t reroutes = 0;
    std::size_t die = 0; ///< die that answered (service workloads)
    std::size_t krylov_iters = 0;
    std::size_t applies = 0;
    /** Config bytes of refinement passes after the first, and how
     *  many such passes (library refine path only). */
    std::size_t later_pass_bytes = 0;
    std::size_t later_passes = 0;
};

/** Service counter deltas over one window (service workloads). */
struct ServiceDelta {
    bool present = false;
    double integrate_s = 0.0; ///< dies' integrate seconds, summed
    double die_wall_s = 0.0;  ///< service wall seconds x dies
    std::size_t rounds = 0;
    std::size_t completed = 0;
    std::size_t affinity_hits = 0;
    std::size_t affinity_misses = 0;
    std::size_t cache_hits = 0;
    std::size_t cache_misses = 0;
    std::size_t evictions = 0;
    std::size_t analog_failures = 0;
};

/** One timed window. */
struct WindowResult {
    std::vector<RequestRecord> records; ///< in sequence order
    double wall_s = 0.0;
    /** Peak resident MiB once the first cycle (on spd-refine, round)
     *  of the window was answered, or at its end for a shorter
     *  fixed-count window: a fixed amount of work, so the figure does
     *  not grow with how many requests a fast run completes. */
    double peak_rss_mb = 0.0;
    ServiceDelta service;
};

/** Direct simulator probe on the largest pattern's netlist. */
struct RhsProbe {
    double eval_us = 0.0;
    std::size_t state_count = 0;
};

/** A workload bound to its seed; owns the system under test. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Tear down any previous system and build a fresh one: pool or
     *  solver construction, calibration, and the first touch of every
     *  pattern. Returns the host seconds it took. */
    virtual double setup() = 0;

    /**
     * Run requests closed-loop for whole cycles: until the cycle
     * boundary nearest to `seconds` on the service workloads, a fixed
     * number of cycles set by `seconds` on spd-refine, or until
     * `max_requests` were issued when that is non-zero. Sequence numbers
     * start at 0 after a set-up and continue across windows of one
     * set-up.
     */
    virtual WindowResult run(double seconds, std::size_t max_requests,
                             Tracer &tracer) = 0;

    /** Time Simulator::evalRhs on the largest pattern, on a die built
     *  like the workload's (a fresh one, so the window is untouched). */
    virtual RhsProbe probeRhs() = 0;
};

/** The workload names, in the order the README lists them. */
const std::vector<std::string> &workloadNames();

/** Null when the name is unknown. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       std::uint64_t seed);

} // namespace aa::perfbench

#endif // AA_PERFBENCH_WORKLOADS_HH
