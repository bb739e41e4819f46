/**
 * @file
 * aabench: one run of one workload. Prints a human-readable report
 * (provenance, every metric by name with its unit) and, as the last
 * line of standard output, the result object
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 * with the end-to-end metrics (--trace 0) or the per-layer metrics
 * (--trace 1). perfbench/run.py builds this binary and wraps it; see
 * README.md in this directory for the definitions.
 *
 *   aabench --workload NAME --seed N --seconds S --trace 0|1
 *           [--requests N] [--records FILE] [--spans FILE]
 *   aabench --list-metrics 1
 *
 * --requests replaces the time window by a fixed request count (the
 * determinism replay); --records writes the untraced window's
 * requests, one JSON object each; --spans writes the traced window's
 * spans as JSON lines. --list-metrics prints the metric catalogue
 * (run.py checks it against BENCHMARK.json).
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "aa/common/logging.hh"
#include "bench_util.hh"
#include "ledger.hh"
#include "workloads.hh"

using namespace aa;
using namespace aa::perfbench;

namespace {

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::size_t requests = 0;
    std::string records;
    std::string spans;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "aabench: " << why
              << "\nusage: aabench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--requests N] [--records FILE] "
                 "[--spans FILE]\n";
    std::exit(2);
}

Args
parse(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string k = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + k);
        std::string v = argv[++i];
        try {
            if (k == "--workload")
                a.workload = v;
            else if (k == "--seed")
                a.seed = std::stoull(v);
            else if (k == "--seconds")
                a.seconds = std::stod(v);
            else if (k == "--trace")
                a.trace = std::stoi(v) != 0;
            else if (k == "--requests")
                a.requests = std::stoul(v);
            else if (k == "--records")
                a.records = v;
            else if (k == "--spans")
                a.spans = v;
            else if (k == "--list-metrics") {
                writeCatalogue(std::cout);
                std::exit(0);
            }
            else
                usage("unknown option " + k);
        } catch (const std::logic_error &) {
            usage("bad value for " + k + ": " + v);
        }
    }
    if (a.workload.empty())
        usage("--workload is required");
    if (!(a.seconds > 0.0))
        usage("--seconds must be positive");
    return a;
}

/** Answered = the program returned an answer (status Ok). */
bool
answered(const RequestRecord &r)
{
    return r.claim.ok;
}

double
phaseSeconds(const analog::SolvePhaseReport &p)
{
    return p.compile_seconds + p.configure_seconds + p.run_seconds +
           p.readout_seconds;
}

std::size_t
countVerdict(const WindowResult &w, Verdict v)
{
    std::size_t n = 0;
    for (const auto &r : w.records)
        n += r.verdict == v;
    return n;
}

double
solvesPerSecond(const WindowResult &w)
{
    return static_cast<double>(countVerdict(w, Verdict::Pass)) /
           w.wall_s;
}

/** Fill the end-to-end metrics; report-only extras go to `extra`. */
void
endToEnd(const WindowResult &w, MetricSet &m, MetricSet &extra,
         int &tail_pct)
{
    std::vector<double> lat, res;
    double chip = 0.0;
    std::size_t ans = 0, degraded = 0, targeted = 0;
    for (const auto &r : w.records) {
        lat.push_back(r.latency_s * 1e3);
        targeted += r.claim.tolerance > 0.0;
        if (!answered(r))
            continue;
        ++ans;
        chip += r.chip_s;
        degraded += r.degraded;
        res.push_back(std::isfinite(r.rel_residual) ? r.rel_residual
                                                    : INFINITY);
    }
    double n = static_cast<double>(w.records.size());
    tail_pct = tailPercentile(lat.size());
    m.set("solves_per_s", solvesPerSecond(w));
    m.set("latency_p50_ms", quantile(lat, 0.5));
    m.set("latency_tail_ms", quantile(lat, tail_pct / 100.0));
    m.set("chip_ms_per_solve",
          ans ? chip * 1e3 / static_cast<double>(ans) : 0.0);
    extra.set("rel_residual_p50", quantile(res, 0.5));
    extra.set("rel_residual_max", quantile(res, 1.0));
    extra.set("failed_frac",
              static_cast<double>(countVerdict(w, Verdict::Failed)) / n);
    extra.set("unconverged_frac",
              targeted ? static_cast<double>(
                             countVerdict(w, Verdict::Unconverged)) /
                             static_cast<double>(targeted)
                       : 0.0);
    extra.set("degraded_frac", static_cast<double>(degraded) / n);
    extra.set("requests", n);
}

void
perLayer(const WindowResult &w, const std::vector<Span> &spans,
         const RhsProbe &probe, MetricSet &m)
{
    std::size_t ans = 0, lane[5] = {}, precond_n = 0;
    double sum_compile = 0, sum_configure = 0, sum_run = 0,
           sum_readout = 0, sum_chip = 0, sum_precond_host = 0;
    std::size_t bytes = 0, attempts = 0, passes = 0, reroutes = 0,
                iters = 0, applies = 0, hits = 0, misses = 0,
                later_bytes = 0, later_passes = 0;
    std::vector<double> queue_ms, overhead_ms;
    for (const auto &r : w.records) {
        if (!answered(r))
            continue;
        ++ans;
        ++lane[static_cast<int>(r.lane)];
        const auto &p = r.phases;
        sum_compile += p.compile_seconds;
        sum_configure += p.configure_seconds;
        sum_run += p.run_seconds;
        sum_readout += p.readout_seconds;
        sum_chip += r.chip_s;
        bytes += p.config_bytes;
        hits += p.cache_hits;
        misses += p.cache_misses;
        attempts += r.attempts;
        passes += r.passes;
        reroutes += r.reroutes;
        iters += r.krylov_iters;
        applies += r.applies;
        later_bytes += r.later_pass_bytes;
        later_passes += r.later_passes;
        double host = r.service_s - r.queue_s - phaseSeconds(p);
        if (w.service.present) {
            queue_ms.push_back(r.queue_s * 1e3);
            overhead_ms.push_back(host * 1e3);
        }
        // A rerouted request's earlier attempts ran inside its queue
        // time, so its host remainder is only clean without reroutes.
        if (r.lane == service::SolveLane::AnalogPrecond &&
            r.reroutes == 0) {
            ++precond_n;
            sum_precond_host += host;
        }
    }
    double a = ans ? static_cast<double>(ans) : 1.0;
    auto per = [&](double x) { return x / a; };
    auto frac = [&](service::SolveLane l) {
        return w.service.present
                   ? static_cast<double>(lane[static_cast<int>(l)]) / a
                   : 0.0;
    };
    auto ratio = [](double num, double den) {
        return den > 0.0 ? num / den : 0.0;
    };
    const ServiceDelta &d = w.service;

    std::vector<double> self = selfSeconds(spans);
    for (double &s : self)
        s *= 1e3;

    m.set("service.queue_ms_p50", quantile(queue_ms, 0.5));
    m.set("service.overhead_ms_p50", quantile(overhead_ms, 0.5));
    m.set("service.die_occupancy", ratio(d.integrate_s, d.die_wall_s));
    m.set("service.rounds_per_req",
          ratio(static_cast<double>(d.rounds),
                static_cast<double>(d.completed)));
    m.set("service.affinity_hit_ratio",
          ratio(static_cast<double>(d.affinity_hits),
                static_cast<double>(d.affinity_hits + d.affinity_misses)));
    m.set("service.reroutes_per_req", per(static_cast<double>(reroutes)));
    m.set("service.analog_failures_per_req",
          per(static_cast<double>(d.analog_failures)));
    m.set("service.lane_analog_frac", frac(service::SolveLane::Analog));
    m.set("service.lane_refined_frac",
          frac(service::SolveLane::AnalogRefined));
    m.set("service.lane_precond_frac",
          frac(service::SolveLane::AnalogPrecond));
    m.set("service.self_ms_p50", quantile(self, 0.5));
    m.set("compiler.cache_hit_ratio",
          d.present ? ratio(static_cast<double>(d.cache_hits),
                            static_cast<double>(d.cache_hits +
                                                d.cache_misses))
                    : ratio(static_cast<double>(hits),
                            static_cast<double>(hits + misses)));
    m.set("compiler.compile_ms_per_solve", per(sum_compile * 1e3));
    m.set("compiler.evictions_per_req",
          per(static_cast<double>(d.evictions)));
    m.set("isa.config_bytes_per_solve", per(static_cast<double>(bytes)));
    m.set("isa.configure_ms_per_solve", per(sum_configure * 1e3));
    m.set("refine.config_bytes_after_first_pass",
          ratio(static_cast<double>(later_bytes),
                static_cast<double>(later_passes)));
    m.set("analog.attempts_per_solve", per(static_cast<double>(attempts)));
    m.set("analog.readout_ms_per_solve", per(sum_readout * 1e3));
    m.set("circuit.run_ms_per_solve", per(sum_run * 1e3));
    m.set("circuit.host_per_chip", ratio(sum_run, sum_chip));
    m.set("circuit.rhs_eval_us", probe.eval_us);
    m.set("circuit.state_count", static_cast<double>(probe.state_count));
    m.set("refine.passes_per_req", per(static_cast<double>(passes)));
    m.set("krylov.outer_iters_per_req", per(static_cast<double>(iters)));
    m.set("krylov.applies_per_req", per(static_cast<double>(applies)));
    m.set("krylov.host_ms_per_req",
          precond_n ? sum_precond_host * 1e3 /
                          static_cast<double>(precond_n)
                    : 0.0);
}

const char *
laneName(service::SolveLane l)
{
    switch (l) {
    case service::SolveLane::Analog: return "analog";
    case service::SolveLane::AnalogRefined: return "refined";
    case service::SolveLane::AnalogPrecond: return "precond";
    case service::SolveLane::DigitalCg: return "digital";
    default: return "none";
    }
}

/** One JSON object per request. Modelled-clock values are also given
 *  as hex floats, so bit-identity can be checked from the file. */
void
writeRecords(const std::string &path, const WindowResult &w)
{
    std::ofstream os(path);
    char buf[768];
    for (const auto &r : w.records) {
        std::snprintf(
            buf, sizeof buf,
            "{\"seq\": %llu, \"pattern\": \"%s\", \"verdict\": %d, "
            "\"lane\": \"%s\", \"latency_ms\": %.17g, \"queue_ms\": %.17g, "
            "\"chip_ms\": %.17g, \"chip_s_hex\": \"%a\", "
            "\"rel_residual_hex\": \"%a\", \"passes\": %zu, "
            "\"attempts\": %zu, \"config_bytes\": %zu, "
            "\"reroutes\": %zu, \"die\": %zu, \"krylov_iters\": %zu}\n",
            static_cast<unsigned long long>(r.seq), r.pattern.c_str(),
            static_cast<int>(r.verdict), laneName(r.lane),
            r.latency_s * 1e3, r.queue_s * 1e3, r.chip_s * 1e3, r.chip_s,
            r.rel_residual, r.passes, r.attempts, r.phases.config_bytes, r.reroutes,
            r.die, r.krylov_iters);
        os << buf;
    }
}

/**
 * One measured pass: set-ups on fresh systems, at least three and until
 * two seconds were spent on them (at most 15), so setup_s is a median
 * of several; the last one is followed by the timed window. A
 * fixed-count replay sets up once.
 */
WindowResult
measure(Workload &wl, const Args &args, Tracer &tracer,
        std::vector<double> &setups)
{
    double spent = 0.0;
    for (std::size_t k = 0; k < (args.requests ? 1u : 15u); ++k) {
        setups.push_back(wl.setup());
        spent += setups.back();
        if (k + 1 >= 3 && spent >= 2.0)
            break;
    }
    return wl.run(args.seconds, args.requests, tracer);
}

void
printMetrics(const char *heading, const std::vector<MetricDef> &defs,
             const MetricSet &m)
{
    std::cout << "# " << heading << "\n";
    for (const MetricDef &d : defs)
        if (m.has(d.name))
            std::cout << "#   " << d.name << " = "
                      << fullDigits(m.get(d.name)) << " " << d.unit
                      << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    Args args = parse(argc, argv);
    setLogLevel(LogLevel::Quiet);
    std::unique_ptr<Workload> wl = makeWorkload(args.workload, args.seed);
    if (!wl) {
        std::string known;
        for (const std::string &n : workloadNames())
            known += " " + n;
        usage("unknown workload " + args.workload + " (known:" + known +
              ")");
    }

    std::string build_type = bench::buildType();
    bool fit = build_type != "Debug" && build_type != "unknown";
    std::cout << "# perfbench workload=" << args.workload
              << " seed=" << args.seed << " seconds=" << args.seconds
              << " trace=" << args.trace << "\n"
              << "# provenance build_type=" << build_type
              << " compiler=\"" << bench::compilerId() << "\" flags=\""
              << bench::buildFlags() << "\" nproc="
              << std::thread::hardware_concurrency() << " commit="
              << (std::getenv("PERFBENCH_COMMIT")
                      ? std::getenv("PERFBENCH_COMMIT")
                      : "unknown")
              << " aasim_threads="
              << (std::getenv("AASIM_THREADS") ? std::getenv("AASIM_THREADS")
                                               : "default")
              << "\n";
    if (!fit)
        std::cout << "# WARNING: " << build_type
                  << " build: timings unfit for comparison\n";

    MetricSet e2e, extra, layers;
    int tail_pct = 100;
    std::vector<double> setups;
    Tracer off(false);
    WindowResult w = measure(*wl, args, off, setups);
    endToEnd(w, e2e, extra, tail_pct);
    e2e.set("setup_s", quantile(setups, 0.5));
    std::vector<WindowResult> windows;
    if (args.trace) {
        Tracer tracer(true);
        std::vector<double> unused;
        WindowResult wt = measure(*wl, args, tracer, unused);
        perLayer(wt, tracer.spans(), wl->probeRhs(), layers);
        double base = solvesPerSecond(w), traced = solvesPerSecond(wt);
        layers.set("trace.solves_per_s", traced);
        layers.set("trace.overhead_frac",
                   base > 0.0 ? (base - traced) / base : 0.0);
        if (!args.spans.empty()) {
            std::ofstream os(args.spans);
            tracer.writeJsonLines(os);
        }
        windows.push_back(std::move(wt));
    }
    e2e.set("peak_rss_mb", w.peak_rss_mb);
    if (!args.records.empty())
        writeRecords(args.records, w);
    windows.insert(windows.begin(), std::move(w));

    std::size_t attempted = 0, failed = 0;
    for (const auto &win : windows) {
        attempted += win.records.size();
        failed += countVerdict(win, Verdict::Failed);
    }

    printMetrics("end-to-end (untraced window)", endToEndMetrics(), e2e);
    std::cout << "#   latency_tail_ms is p" << tail_pct << " of "
              << windows.front().records.size() << " requests\n";
    std::cout << "#   setup_s is the median of " << setups.size()
              << " set-ups:";
    for (double t : setups)
        std::cout << " " << t;
    std::cout << "\n";
    std::cout << "# report-only (0 on some workloads, so not bounded)\n";
    for (const char *k : {"rel_residual_p50", "rel_residual_max",
                          "failed_frac", "unconverged_frac",
                          "degraded_frac", "requests"})
        std::cout << "#   " << k << " = " << fullDigits(extra.get(k))
                  << (std::string(k) == "requests" ? " count" : " ratio")
                  << "\n";
    if (args.trace)
        printMetrics("per-layer (traced window)", perLayerMetrics(),
                     layers);

    std::cout << "{\"correct\": " << (failed == 0 ? "true" : "false")
              << ", \"attempted\": " << attempted
              << ", \"failed\": " << failed << ", \"metrics\": ";
    if (args.trace)
        layers.writeJson(std::cout, perLayerMetrics());
    else
        e2e.writeJson(std::cout, endToEndMetrics());
    std::cout << "}" << std::endl;
    return failed == 0 ? 0 : 1;
}
