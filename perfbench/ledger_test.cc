/**
 * @file
 * Tests of the benchmark's own helpers: the tail-percentile rule, the
 * answer checker (NaN, Inf and 1e300-overflow answers must fail even
 * when the response claims Ok/verified), and the metric catalogue
 * (every declared metric emitted with a unit). Exits non-zero on the
 * first failed check; run by `python3 perfbench/run.py --self-test`.
 */

#include <cmath>
#include <cstdlib>
#include <iostream>
#include <set>
#include <sstream>
#include <string>

#include "ledger.hh"

using namespace aa;
using namespace aa::perfbench;

namespace {

int failures = 0;

void
check(bool ok, const std::string &what)
{
    if (!ok) {
        std::cerr << "FAIL: " << what << "\n";
        ++failures;
    }
}

/** Nearest-rank samples strictly above the value at percentile p. */
std::size_t
beyond(std::size_t n, int p)
{
    std::vector<double> v;
    for (std::size_t i = 0; i < n; ++i)
        v.push_back(static_cast<double>(i));
    double at = quantile(v, p / 100.0);
    std::size_t k = 0;
    for (double x : v)
        k += x > at;
    return k;
}

void
testTailPercentile()
{
    check(tailPercentile(0) == 100, "empty sample reports the max");
    check(tailPercentile(10) == 100, "10 samples: no percentile fits");
    check(tailPercentile(11) == 9, "11 samples: p9 leaves 10 beyond");
    check(tailPercentile(20) == 50, "20 samples: the median");
    check(tailPercentile(100) == 90, "100 samples: p90");
    check(tailPercentile(199) == 94, "199 samples: p94");
    check(tailPercentile(200) == 95, "200 samples: p95");
    check(tailPercentile(1000) == 99, "1000 samples: p99");
    check(tailPercentile(100000) == 99, "capped at whole p99");
    // The rule itself, over a range of counts: at least ten samples
    // beyond the chosen percentile, fewer than ten beyond the next.
    for (std::size_t n = 11; n <= 2000; ++n) {
        int p = tailPercentile(n);
        check(beyond(n, p) >= 10,
              "n=" + std::to_string(n) + ": >= 10 beyond p" +
                  std::to_string(p));
        if (p < 99)
            check(beyond(n, p + 1) < 10,
                  "n=" + std::to_string(n) + ": p" +
                      std::to_string(p) + " is the highest");
    }
}

la::DenseMatrix
poisson1d(std::size_t n)
{
    la::DenseMatrix a(n, n);
    for (std::size_t i = 0; i < n; ++i) {
        a(i, i) = 2.0;
        if (i > 0)
            a(i, i - 1) = -1.0;
        if (i + 1 < n)
            a(i, i + 1) = -1.0;
    }
    return a;
}

void
testChecker()
{
    la::DenseMatrix a = poisson1d(4);
    la::Vector u{1.0, 2.0, 3.0, 4.0};
    la::Vector b = a.apply(u);

    Claim verified;
    verified.ok = true;
    verified.verified = true;
    verified.converged = true;

    check(relResidual(a, b, u) < 1e-15, "exact answer: zero residual");
    check(judge(verified, u, relResidual(a, b, u)) == Verdict::Pass,
          "exact answer passes");

    // Non-finite answers fail whatever the response claims.
    la::Vector nan_u = u;
    nan_u[2] = NAN;
    check(!std::isfinite(relResidual(a, b, nan_u)), "NaN u: NaN residual");
    check(judge(verified, nan_u, relResidual(a, b, nan_u)) ==
              Verdict::Failed,
          "NaN u fails although Ok/verified");
    la::Vector inf_u = u;
    inf_u[0] = INFINITY;
    check(judge(verified, inf_u, relResidual(a, b, inf_u)) ==
              Verdict::Failed,
          "Inf u fails although Ok/verified");
    la::Vector inf_b = b;
    inf_b[1] = INFINITY;
    check(judge(verified, u, relResidual(a, inf_b, u)) ==
              Verdict::Failed,
          "Inf in b: the residual is not finite, so the answer fails");

    // A 1e300-scaled system: the correct (scaled) answer passes with
    // an exact residual, and the overflow answer u = 0 that a naive
    // ||b||^2 calls converged fails.
    la::Vector big_u = u, big_b = b;
    for (std::size_t i = 0; i < u.size(); ++i) {
        big_u[i] *= 1e300;
        big_b[i] *= 1e300;
    }
    double big_res = relResidual(a, big_b, big_u);
    check(std::isfinite(big_res) && big_res < 1e-15,
          "1e300-scaled correct answer: finite, exact residual");
    check(judge(verified, big_u, big_res) == Verdict::Pass,
          "1e300-scaled correct answer passes");
    la::Vector zero(4, 0.0);
    double zero_res = relResidual(a, big_b, zero);
    check(std::fabs(zero_res - 1.0) < 1e-15,
          "1e300 system, u = 0: residual is exactly 1, not NaN");
    check(judge(verified, zero, zero_res) == Verdict::Failed,
          "1e300 system, u = 0 fails the 0.2 verify bar");
    check(std::isfinite(scaledNorm2(big_b)) && scaledNorm2(big_b) > 1e300,
          "scaled norm of a 1e300 vector does not overflow");

    // Claims: a converged claim must meet the tolerance; an honest
    // unconverged answer is not a failure, it is counted apart.
    la::Vector off = u;
    off[0] += 1e-6;
    double off_res = relResidual(a, b, off);
    Claim tol = verified;
    tol.verified = false;
    tol.tolerance = 1e-8;
    check(judge(tol, off, off_res) == Verdict::Failed,
          "converged claim above tolerance fails");
    tol.converged = false;
    check(judge(tol, off, off_res) == Verdict::Unconverged,
          "honest miss of the tolerance is unconverged");
    Claim not_ok;
    check(judge(not_ok, u, 0.0) == Verdict::Failed, "non-Ok fails");
    check(judge(verified, u, relResidual(a, b, la::Vector{1.0})) ==
              Verdict::Failed,
          "wrong-length answer fails");
}

void
testCatalogue()
{
    std::set<std::string> names;
    for (const auto *defs : {&endToEndMetrics(), &perLayerMetrics()})
        for (const MetricDef &d : *defs) {
            check(names.insert(d.name).second,
                  std::string("unique metric name ") + d.name);
            check(d.unit != nullptr && *d.unit != '\0',
                  std::string("unit for ") + d.name);
        }
    bool has_setup = false;
    for (const MetricDef &d : endToEndMetrics())
        has_setup |= std::string(d.name) == "setup_s" &&
                     std::string(d.unit) == "s" &&
                     d.better == Better::Lower;
    check(has_setup, "setup_s is an end-to-end metric in s, lower");

    // Every declared metric is emitted, with its unit.
    for (const auto *defs : {&endToEndMetrics(), &perLayerMetrics()}) {
        MetricSet m;
        for (const MetricDef &d : *defs)
            m.set(d.name, 1.25);
        std::ostringstream os;
        m.writeJson(os, *defs);
        for (const MetricDef &d : *defs)
            check(os.str().find(std::string("\"") + d.name +
                                "\": {\"value\": 1.25, \"unit\": \"" +
                                d.unit + "\"}") != std::string::npos,
                  std::string("emitted with unit: ") + d.name);
    }
    check(fullDigits(0.1) == "0.10000000000000001",
          "values keep all their digits");
}

void
testSelfTime()
{
    std::vector<Span> spans = {
        {1, 0, 0, "request", 0.0, 10.0},
        {2, 1, 0, "queue", 0.0, 2.0},
        {3, 1, 0, "run", 2.0, 6.0},
        {4, 0, 1, "request", 20.0, 21.0},
    };
    std::vector<double> self = selfSeconds(spans);
    check(self.size() == 2, "one self time per root span");
    check(self.size() == 2 && self[0] == 4.0 && self[1] == 1.0,
          "self time = span minus its children");
}

} // namespace

int
main()
{
    testTailPercentile();
    testChecker();
    testCatalogue();
    testSelfTime();
    if (failures) {
        std::cerr << failures << " check(s) failed\n";
        return 1;
    }
    std::cout << "ledger_test: all checks passed\n";
    return 0;
}
