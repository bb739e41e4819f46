#include "ledger.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>

#include "aa/common/stats.hh"

namespace aa::perfbench {

double
scaledNorm2(const la::Vector &x)
{
    double scale = 0.0;
    double ssq = 1.0;
    for (double xi : x) {
        if (!std::isfinite(xi))
            return std::isnan(xi) ? xi : INFINITY;
        if (xi == 0.0)
            continue;
        double a = std::fabs(xi);
        if (scale < a) {
            double r = scale / a;
            ssq = 1.0 + ssq * r * r;
            scale = a;
        } else {
            double r = a / scale;
            ssq += r * r;
        }
    }
    return scale * std::sqrt(ssq);
}

double
relResidual(const la::DenseMatrix &a, const la::Vector &b,
            const la::Vector &u)
{
    if (u.size() != b.size() || a.rows() != b.size() ||
        a.cols() != b.size())
        return NAN;
    // The relative residual is scale-invariant, so bring b and u down
    // by an exact power of two first: A u of a correct answer to a
    // 1e300-scaled system must not overflow into a false failure.
    double peak = 0.0;
    for (std::size_t i = 0; i < b.size(); ++i) {
        if (!std::isfinite(b[i]) || !std::isfinite(u[i]))
            return NAN;
        peak = std::max({peak, std::fabs(b[i]), std::fabs(u[i])});
    }
    int e = 0;
    if (peak > 0.0)
        std::frexp(peak, &e);
    la::Vector r(b.size());
    for (std::size_t i = 0; i < b.size(); ++i) {
        double s = std::ldexp(b[i], -e);
        for (std::size_t j = 0; j < u.size(); ++j)
            s -= a(i, j) * std::ldexp(u[j], -e);
        r[i] = s;
    }
    la::Vector bs(b.size());
    for (std::size_t i = 0; i < b.size(); ++i)
        bs[i] = std::ldexp(b[i], -e);
    double nb = scaledNorm2(bs);
    double nr = scaledNorm2(r);
    return nb > 0.0 ? nr / nb : std::ldexp(nr, e);
}

Verdict
judge(const Claim &claim, const la::Vector &u, double rel_residual)
{
    if (!claim.ok || !std::isfinite(rel_residual))
        return Verdict::Failed;
    for (double ui : u)
        if (!std::isfinite(ui))
            return Verdict::Failed;
    // Residuals are recomputed in the same double arithmetic the
    // library uses; the slack only absorbs summation-order rounding.
    constexpr double kSlack = 1.0 + 1e-9;
    bool targets = claim.tolerance > 0.0;
    if (claim.converged && targets &&
        rel_residual > claim.tolerance * kSlack)
        return Verdict::Failed;
    if (claim.verified && rel_residual > claim.verify_bar * kSlack)
        return Verdict::Failed;
    if (targets && rel_residual > claim.tolerance * kSlack)
        return Verdict::Unconverged;
    return Verdict::Pass;
}

double
quantile(const std::vector<double> &v, double q)
{
    QuantileTracker t(std::max<std::size_t>(v.size(), 1));
    for (double x : v)
        t.add(x);
    return t.quantile(q);
}

int
tailPercentile(std::size_t n)
{
    // Whole percentile p leaves n * (100 - p) / 100 samples above its
    // nearest-rank value; require at least ten.
    for (int p = 99; p >= 1; --p)
        if (n * static_cast<std::size_t>(100 - p) >= 1000)
            return p;
    return 100;
}

const std::vector<MetricDef> &
endToEndMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"solves_per_s", "1/s", Better::Higher,
         "correct answers per wall second over the timed window"},
        {"latency_p50_ms", "ms", Better::Lower,
         "median submit-to-answer time per request"},
        {"latency_tail_ms", "ms", Better::Lower,
         "submit-to-answer time at the highest whole percentile with "
         ">= 10 samples beyond it (percentile printed beside it)"},
        {"chip_ms_per_solve", "ms", Better::Lower,
         "modelled chip milliseconds per answered request (all "
         "attempts, passes and applies)"},
        {"setup_s", "s", Better::Lower,
         "median of the run's set-ups (at least three, and until 2 s "
         "were spent): pool/solver construction, calibration, first "
         "touch of every pattern"},
        {"peak_rss_mb", "MB", Better::Lower,
         "peak resident host memory of the benchmark process over its "
         "set-ups and the first cycle (or round) of the window"},
    };
    return defs;
}

const std::vector<MetricDef> &
perLayerMetrics()
{
    static const std::vector<MetricDef> defs = {
        // service
        {"service.queue_ms_p50", "ms", Better::Lower,
         "median SolveResponse::queue_seconds"},
        {"service.overhead_ms_p50", "ms", Better::Lower,
         "median service_seconds - queue_seconds - sum of phases"},
        {"service.die_occupancy", "ratio", Better::Higher,
         "pool integrate seconds per die-wall-second over the window"},
        {"service.rounds_per_req", "count", Better::Lower,
         "scheduling rounds dispatched per completed request"},
        {"service.affinity_hit_ratio", "ratio", Better::Higher,
         "requests routed to a die holding their structure"},
        {"service.reroutes_per_req", "count", Better::Lower,
         "dies tried beyond the first, per answered request"},
        {"service.analog_failures_per_req", "count", Better::Lower,
         "analog solves that failed verification (wasted runs)"},
        // Lane shares: "better" points at the cheaper lanes.
        {"service.lane_analog_frac", "ratio", Better::Higher,
         "answers from the single analog solve lane"},
        {"service.lane_refined_frac", "ratio", Better::Lower,
         "answers from the Algorithm-2 refinement lane"},
        {"service.lane_precond_frac", "ratio", Better::Lower,
         "answers from the analog-preconditioned Krylov lane"},
        {"service.self_ms_p50", "ms", Better::Lower,
         "median request span minus its child spans (benchmark clock)"},
        // compiler
        {"compiler.cache_hit_ratio", "ratio", Better::Higher,
         "program-cache hits / (hits + misses)"},
        {"compiler.compile_ms_per_solve", "ms", Better::Lower,
         "compile phase host ms per answered request"},
        {"compiler.evictions_per_req", "count", Better::Lower,
         "program-cache evictions per answered request"},
        // isa
        {"isa.config_bytes_per_solve", "B", Better::Lower,
         "configuration bytes shipped per answered request"},
        {"isa.configure_ms_per_solve", "ms", Better::Lower,
         "configure phase host ms per answered request"},
        {"refine.config_bytes_after_first_pass", "B", Better::Lower,
         "mean config bytes per refinement pass after the first"},
        // analog
        {"analog.attempts_per_solve", "count", Better::Lower,
         "accelerator attempts (re-scaling retries included) per "
         "answered request"},
        {"analog.readout_ms_per_solve", "ms", Better::Lower,
         "readout phase host ms per answered request"},
        // circuit / ode / chip: the simulator
        {"circuit.run_ms_per_solve", "ms", Better::Lower,
         "run phase host ms (simulated integration) per answer"},
        {"circuit.host_per_chip", "ratio", Better::Lower,
         "run-phase host seconds per modelled chip second"},
        {"circuit.rhs_eval_us", "us", Better::Lower,
         "one Simulator::evalRhs on the largest pattern's netlist"},
        {"circuit.state_count", "count", Better::Lower,
         "Simulator::stateCount of that netlist"},
        // analog/refine
        {"refine.passes_per_req", "count", Better::Lower,
         "accelerator passes per answered request"},
        // solver (krylov)
        {"krylov.outer_iters_per_req", "count", Better::Lower,
         "outer Krylov iterations per answered request"},
        {"krylov.applies_per_req", "count", Better::Lower,
         "analog preconditioner applies per answered request"},
        {"krylov.host_ms_per_req", "ms", Better::Lower,
         "preconditioned-lane answer time minus queue and phases, mean "
         "over answers without reroutes"},
        // the benchmark itself
        {"trace.solves_per_s", "1/s", Better::Higher,
         "solves_per_s of the traced window"},
        {"trace.overhead_frac", "ratio", Better::Lower,
         "(untraced - traced) / untraced solves_per_s, same process"},
    };
    return defs;
}

const char *
name(Better b)
{
    return b == Better::Lower ? "lower" : "higher";
}

void
writeCatalogue(std::ostream &os)
{
    auto group = [&](const char *key, const std::vector<MetricDef> &defs) {
        os << '"' << key << "\": [";
        for (std::size_t i = 0; i < defs.size(); ++i)
            os << (i ? ", " : "") << "{\"name\": \"" << defs[i].name
               << "\", \"unit\": \"" << defs[i].unit
               << "\", \"better\": \"" << name(defs[i].better)
               << "\", \"what\": \"" << defs[i].what << "\"}";
        os << ']';
    };
    os << '{';
    group("end_to_end", endToEndMetrics());
    os << ", ";
    group("per_layer", perLayerMetrics());
    os << "}\n";
}

void
MetricSet::set(const std::string &name, double value)
{
    for (auto &kv : values_)
        if (kv.first == name) {
            kv.second = value;
            return;
        }
    values_.emplace_back(name, value);
}

bool
MetricSet::has(const std::string &name) const
{
    for (const auto &kv : values_)
        if (kv.first == name)
            return true;
    return false;
}

double
MetricSet::get(const std::string &name) const
{
    for (const auto &kv : values_)
        if (kv.first == name)
            return kv.second;
    return NAN;
}

double
peakRssMb()
{
    // VmHWM is this process image's own high-water mark. getrusage's
    // ru_maxrss is not: Linux carries it across exec, so a child of a
    // large parent (run.py's Python) reports at least the parent's size.
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0; // kB
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB -> MiB
}

std::string
fullDigits(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

void
MetricSet::writeJson(std::ostream &os,
                     const std::vector<MetricDef> &defs) const
{
    os << '{';
    bool first = true;
    for (const MetricDef &d : defs) {
        if (!has(d.name)) {
            std::cerr << "perfbench: metric " << d.name
                      << " was never measured\n";
            std::abort();
        }
        os << (first ? "" : ", ") << '"' << d.name
           << "\": {\"value\": " << fullDigits(get(d.name))
           << ", \"unit\": \"" << d.unit << "\"}";
        first = false;
    }
    os << '}';
}

double
Tracer::now() const
{
    return std::chrono::duration<double>(Clock::now() - origin_)
        .count();
}

std::uint64_t
Tracer::record(std::string name, std::uint64_t request, double start_s,
               double end_s, std::uint64_t parent)
{
    if (!enabled_)
        return 0;
    std::lock_guard<std::mutex> lk(mu_);
    Span s;
    s.id = next_id_++;
    s.parent = parent;
    s.request = request;
    s.name = std::move(name);
    s.start_s = start_s;
    s.end_s = end_s;
    spans_.push_back(std::move(s));
    return spans_.back().id;
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return spans_;
}

void
Tracer::writeJsonLines(std::ostream &os) const
{
    for (const Span &s : spans())
        os << "{\"id\": " << s.id << ", \"parent\": " << s.parent
           << ", \"request\": " << s.request << ", \"name\": \""
           << s.name << "\", \"start_s\": " << fullDigits(s.start_s)
           << ", \"end_s\": " << fullDigits(s.end_s) << "}\n";
}

std::vector<double>
selfSeconds(const std::vector<Span> &spans)
{
    std::vector<double> out;
    for (const Span &root : spans) {
        if (root.parent != 0)
            continue;
        double self = root.end_s - root.start_s;
        for (const Span &c : spans)
            if (c.parent == root.id)
                self -= c.end_s - c.start_s;
        out.push_back(self);
    }
    return out;
}

} // namespace aa::perfbench
