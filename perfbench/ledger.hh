/**
 * @file
 * The benchmark's own bookkeeping, independent of the library under
 * test: an answer checker that recomputes residuals instead of
 * trusting the response, the tail-percentile rule, the metric
 * catalogue (names and units of everything the benchmark prints), and
 * an in-memory span recorder written out as JSON lines at exit.
 */

#ifndef AA_PERFBENCH_LEDGER_HH
#define AA_PERFBENCH_LEDGER_HH

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "aa/la/dense_matrix.hh"
#include "aa/la/vector.hh"

namespace aa::perfbench {

// ---------------------------------------------------------------------
// Answer checker

/** Overflow-safe Euclidean norm (scaled sum of squares, as in
 *  LAPACK's dnrm2): finite for any finite input, 1e300-scaled vectors
 *  included. NaN or Inf entries make the result non-finite. */
double scaledNorm2(const la::Vector &x);

/** ||b - A u|| / ||b|| with scaled norms; non-finite when u or the
 *  residual is. A zero b gives ||A u|| (the absolute residual). */
double relResidual(const la::DenseMatrix &a, const la::Vector &b,
                   const la::Vector &u);

/** What an answer claims about itself. */
struct Claim {
    bool ok = false;        ///< status Ok (the library did not throw)
    bool verified = false;  ///< passed the service's residual check
    bool converged = false; ///< claims to meet `tolerance`
    double tolerance = 0.0; ///< the request's target (0 = none)
    /** The service's verify bar (ServiceOptions::verify_rel_residual). */
    double verify_bar = 0.2;
};

enum class Verdict {
    Pass,
    /** Not Ok, non-finite u or residual, or a residual above the bar
     *  the answer claims to meet. */
    Failed,
    /** Ok and honest, but a tolerance > 0 request whose recomputed
     *  residual misses the tolerance (returned as converged=false). */
    Unconverged,
};

/** Judge one answer from the recomputed residual, never from the
 *  response's own residual field. */
Verdict judge(const Claim &claim, const la::Vector &u,
              double rel_residual);

// ---------------------------------------------------------------------
// Statistics

/** Nearest-rank quantile of a whole sample, q in [0, 1] (0 when
 *  empty): QuantileTracker's rule, over every value given. */
double quantile(const std::vector<double> &v, double q);

/** The tail percentile reported next to a median: the highest whole
 *  percentile with at least 10 samples beyond it at sample count n.
 *  Returns 100 (the maximum) when n < 11, where no percentile has ten
 *  samples beyond it. */
int tailPercentile(std::size_t n);

// ---------------------------------------------------------------------
// Metric catalogue

enum class Better { Lower, Higher };

/** "lower" or "higher", as BENCHMARK.json spells it. */
const char *name(Better b);

struct MetricDef {
    const char *name;
    const char *unit;
    Better better;
    const char *what; ///< one-line definition
};

/** End-to-end metrics reported by an untraced run (--trace 0). */
const std::vector<MetricDef> &endToEndMetrics();
/** Per-layer metrics reported by a traced run (--trace 1). */
const std::vector<MetricDef> &perLayerMetrics();

/** Both catalogues as {"end_to_end": [...], "per_layer": [...]},
 *  each entry with name, unit, better and what (its definition). */
void writeCatalogue(std::ostream &os);

/** Named values of one run; values are set once per name. */
class MetricSet
{
  public:
    void set(const std::string &name, double value);
    bool has(const std::string &name) const;
    double get(const std::string &name) const;

    /** The result object's "metrics" member for `defs`: every
     *  defined metric with its value and unit, full precision.
     *  Aborts when a defined metric was never set. */
    void writeJson(std::ostream &os,
                   const std::vector<MetricDef> &defs) const;

  private:
    std::vector<std::pair<std::string, double>> values_;
};

/** Peak resident memory of this process so far, in MiB. */
double peakRssMb();

/** Doubles printed with all their digits (round-trippable). */
std::string fullDigits(double v);

// ---------------------------------------------------------------------
// Tracing

using Clock = std::chrono::steady_clock;

/** One timed interval; children name their parent's id. */
struct Span {
    std::uint64_t id = 0;
    std::uint64_t parent = 0; ///< 0 = root
    std::uint64_t request = 0; ///< sequence index of the request
    std::string name;
    double start_s = 0.0; ///< seconds since the tracer's origin
    double end_s = 0.0;
};

/** Thread-safe in-memory span store; disabled tracers record nothing
 *  and cost one branch per call. */
class Tracer
{
  public:
    explicit Tracer(bool enabled)
        : enabled_(enabled), origin_(Clock::now())
    {}

    bool enabled() const { return enabled_; }
    double now() const;
    /** Record a span; returns its id (0 when disabled). */
    std::uint64_t record(std::string name, std::uint64_t request,
                         double start_s, double end_s,
                         std::uint64_t parent = 0);
    std::vector<Span> spans() const;
    /** Write every span as one JSON object per line. */
    void writeJsonLines(std::ostream &os) const;

  private:
    bool enabled_;
    Clock::time_point origin_;
    mutable std::mutex mu_;
    std::vector<Span> spans_;
    std::uint64_t next_id_ = 1;
};

/** Per root span: its duration minus the durations of its direct
 *  children (which the benchmark lays end to end). */
std::vector<double> selfSeconds(const std::vector<Span> &spans);

} // namespace aa::perfbench

#endif // AA_PERFBENCH_LEDGER_HH
