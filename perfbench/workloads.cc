#include "workloads.hh"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "aa/analog/die_pool.hh"
#include "aa/analog/refine.hh"
#include "aa/circuit/simulator.hh"
#include "aa/common/rng.hh"
#include "aa/isa/command.hh"
#include "aa/la/generate.hh"
#include "aa/pde/convection.hh"
#include "aa/pde/poisson.hh"
#include "aa/spice/generate.hh"
#include "aa/spice/mna.hh"

namespace aa::perfbench {

namespace {

using Matrix = std::shared_ptr<const la::DenseMatrix>;

std::uint64_t
mix(std::uint64_t x)
{
    // splitmix64 finalizer: decorrelates (seed, index) streams.
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

bool
isSymmetric(const la::DenseMatrix &a)
{
    for (std::size_t i = 0; i < a.rows(); ++i)
        for (std::size_t j = 0; j < i; ++j)
            if (a(i, j) != a(j, i))
                return false;
    return true;
}

/** One request family: a fixed operator and base right-hand side, part
 *  of the workload's definition, scaled per request from the seed.
 *  Fixed operators keep each request's cost a property of its pattern,
 *  so runs on different seeds measure the same work. */
struct Pattern {
    std::string label;
    /** Scale by an exact power of two (1/2, 1 or 2) instead of a
     *  continuous factor in [0.5, 2]: for the SPD family, whose
     *  refinement pass count swings from 6 to 13 with the right-hand
     *  side, so only the range searches see the scale. */
    bool pow2_scale = false;
    /** Library path: analog-preconditioned Krylov instead of
     *  refinement (RefineWorkload only). */
    bool precond = false;
    double tolerance = 0.0;
    Matrix a;
    la::Vector b;

    std::size_t size() const { return a->rows(); }
};

struct Request {
    const Pattern *pattern = nullptr;
    la::Vector b;

    const la::DenseMatrix &a() const { return *pattern->a; }
};

Pattern
fixedPattern(std::string label, const la::DenseMatrix &a,
             la::Vector b, double tolerance = 0.0)
{
    Pattern p;
    p.label = std::move(label);
    p.a = std::make_shared<const la::DenseMatrix>(a);
    p.b = std::move(b);
    p.tolerance = tolerance;
    return p;
}

Pattern
poisson(std::size_t dim, std::size_t l)
{
    auto prob = pde::assemblePoisson(
        dim, l, [](double x, double y, double) { return 1.0 + x + y; });
    return fixedPattern("poisson" + std::to_string(dim) + "d-l" +
                            std::to_string(l),
                        prob.a.toDense(), prob.b);
}

Pattern
deck(std::string label, const std::string &text)
{
    spice::AssembleResult res = spice::assembleDeck(text);
    if (!res.ok)
        throw std::runtime_error("perfbench: deck " + label + ": " +
                                 res.summary());
    return fixedPattern(std::move(label), res.system.g.toDense(),
                        res.system.i);
}

Pattern
spd(std::size_t n, double kappa, double tolerance)
{
    auto id = static_cast<std::uint64_t>(1000 * n) +
              static_cast<std::uint64_t>(kappa);
    Pattern p = fixedPattern("spd-n" + std::to_string(n) + "-k" +
                                 std::to_string(id % 1000),
                             la::spdLogSpectrum(n, kappa, id),
                             la::seededRhs(n, id), tolerance);
    p.pow2_scale = true;
    return p;
}

Pattern
convection(std::size_t l, double peclet)
{
    auto prob = pde::convectionBenchmark(2, l, peclet, 7);
    return fixedPattern("convection-l" + std::to_string(l) + "-pe" +
                            std::to_string(peclet).substr(0, 3),
                        prob.a.toDense(), prob.b);
}

/**
 * The request sequence: cycle c is a seeded shuffle of `cycle`
 * (pattern indices, with repeats setting the mix; unshuffled when the
 * stream is built so), and each request's
 * right-hand-side scale comes from its pattern's seeded sequence. Pure
 * function of (seed, i).
 */
class RequestStream
{
  public:
    RequestStream(std::vector<Pattern> patterns,
                  std::vector<std::size_t> cycle, std::uint64_t seed,
                  bool shuffled = true)
        : patterns_(std::move(patterns)), cycle_(std::move(cycle)),
          seed_(seed), shuffled_(shuffled)
    {}

    std::size_t cycleLength() const { return cycle_.size(); }
    const std::vector<Pattern> &patterns() const { return patterns_; }

    Request
    make(std::uint64_t i) const
    {
        std::uint64_t c = i / cycle_.size();
        std::size_t pos = i % cycle_.size();
        std::vector<std::size_t> order = cycle_;
        Rng shuffle(mix(seed_ ^ mix(c)));
        for (std::size_t k = shuffled_ ? order.size() : 0; k > 1; --k)
            std::swap(order[k - 1],
                      order[static_cast<std::size_t>(shuffle.uniformInt(
                          0, static_cast<std::int64_t>(k - 1)))]);
        std::size_t p = order[pos];
        // This request is occurrence `nth` of its pattern in the
        // stream; its scale walks a golden-ratio sequence from a seeded
        // start, so every run covers [0.5, 2] evenly and the share of
        // right-hand sides that take an expensive path (a failed
        // verification, say) does not swing with the seed.
        std::size_t per_cycle = static_cast<std::size_t>(
            std::count(cycle_.begin(), cycle_.end(), p));
        std::size_t before = static_cast<std::size_t>(std::count(
            order.begin(),
            order.begin() + static_cast<std::ptrdiff_t>(pos), p));
        double nth = static_cast<double>(c * per_cycle + before);
        double start = Rng(mix(seed_ ^ mix(p + 1))).uniform(0.0, 1.0);
        double u = start + 0.6180339887498949 * nth;
        return draw(patterns_[p], u - std::floor(u));
    }

    /** A request of pattern p at the middle scale (set-up and the
     *  simulator probe). */
    Request
    aside(std::size_t p) const
    {
        return draw(patterns_[p], 0.5);
    }

  private:
    /** The request of pattern p at scale coordinate u in [0, 1): the
     *  base right-hand side times 0.5 * 4^u, or times 2^(floor(3u) - 1)
     *  for a power-of-two pattern. */
    static Request
    draw(const Pattern &p, double u)
    {
        Request q;
        q.pattern = &p;
        double f = p.pow2_scale
                       ? std::ldexp(1.0, static_cast<int>(3 * u) - 1)
                       : 0.5 * std::pow(4.0, u);
        la::scale(f, p.b, q.b);
        return q;
    }

    std::vector<Pattern> patterns_;
    std::vector<std::size_t> cycle_;
    std::uint64_t seed_;
    bool shuffled_;
};

/** Hands out request indices to closed-loop clients. The window ends
 *  on the cycle boundary nearest to the time limit, after at least one
 *  whole cycle, so every run measures whole cycles of the mix. */
class Dispenser
{
  public:
    Dispenser(std::uint64_t first, std::size_t cycle, double seconds,
              std::size_t max_requests)
        : next_(first), first_(first), cycle_(cycle),
          seconds_(seconds), max_(max_requests), t0_(Clock::now())
    {}

    bool
    take(std::uint64_t &i)
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (max_ != 0) {
            if (next_ - first_ >= max_)
                return false;
        } else if (next_ % cycle_ == 0 && next_ != first_) {
            double t = secondsSince(t0_);
            double per_cycle =
                t / static_cast<double>((next_ - first_) / cycle_);
            // A cycle longer than half the window runs alone, so host
            // speed cannot flip such a workload between one and two.
            if (t + 0.5 * per_cycle >= seconds_ ||
                per_cycle > 0.5 * seconds_)
                return false;
        }
        i = next_++;
        return true;
    }

    std::uint64_t issuedEnd() const { return next_; }

  private:
    std::mutex mu_;
    std::uint64_t next_;
    std::uint64_t first_;
    std::size_t cycle_;
    double seconds_;
    std::size_t max_;
    Clock::time_point t0_;
};

/** Time one evalRhs on the simulator's configured netlist. */
RhsProbe
timeRhs(analog::AnalogLinearSolver &solver)
{
    circuit::Simulator &sim = solver.chipRef().simulator();
    RhsProbe probe;
    probe.state_count = sim.stateCount();
    la::Vector y(probe.state_count), dydt(probe.state_count);
    for (std::size_t i = 0; i < y.size(); ++i)
        y[i] = 1e-3 * static_cast<double>(static_cast<int>(i % 13) - 6);
    // Size a batch to ~2 ms, then take the median of 9 batches.
    std::size_t k = 1;
    for (;;) {
        auto t0 = Clock::now();
        for (std::size_t r = 0; r < k; ++r)
            sim.evalRhs(0.0, y, dydt);
        if (secondsSince(t0) >= 2e-3 || k >= (1u << 24))
            break;
        k *= 2;
    }
    std::vector<double> per;
    for (int rep = 0; rep < 9; ++rep) {
        auto t0 = Clock::now();
        for (std::size_t r = 0; r < k; ++r)
            sim.evalRhs(0.0, y, dydt);
        per.push_back(secondsSince(t0) / static_cast<double>(k));
    }
    probe.eval_us = quantile(per, 0.5) * 1e6;
    return probe;
}

/** Configure a die for q the way the service's lane would: a direct
 *  solve, or one preconditioner apply (which maps the symmetrized
 *  surrogate) for a nonsymmetric operator. */
void
configureOnce(analog::AnalogLinearSolver &solver, const Request &q)
{
    if (isSymmetric(q.a())) {
        solver.solve(q.a(), q.b);
    } else {
        analog::PrecondSolveOptions po;
        po.max_iters = 1;
        solver.solvePreconditioned(q.a(), q.b, po);
    }
}

/** Patterns by descending size (stable), largest first. */
std::vector<std::size_t>
bySize(const RequestStream &stream)
{
    std::vector<std::size_t> order(stream.patterns().size());
    for (std::size_t p = 0; p < order.size(); ++p)
        order[p] = p;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t x, std::size_t y) {
                         return stream.patterns()[x].size() >
                                stream.patterns()[y].size();
                     });
    return order;
}

/**
 * First touch of every pattern on one die, largest first, so the die is
 * built (and calibrated) once at its final size during set-up rather
 * than regrown and recalibrated in the middle of a window. The other
 * patterns compile into the die's program cache (the last ones stay
 * resident).
 */
void
firstTouch(analog::AnalogLinearSolver &solver, const RequestStream &stream)
{
    for (std::size_t p : bySize(stream))
        configureOnce(solver, stream.aside(p));
}

/** Spans a request's response implies: queue first, then its phases
 *  back to back (the response carries durations, not timestamps). */
void
traceResponse(Tracer &tracer, std::uint64_t root, std::uint64_t seq,
              double start, double queue_s,
              const analog::SolvePhaseReport &ph)
{
    double t = start;
    auto child = [&](const char *name, double d) {
        tracer.record(name, seq, t, t + d, root);
        t += d;
    };
    child("queue", queue_s);
    child("compile", ph.compile_seconds);
    child("configure", ph.configure_seconds);
    child("run", ph.run_seconds);
    child("readout", ph.readout_seconds);
}

// ---------------------------------------------------------------------

class ServiceWorkload : public Workload
{
  public:
    ServiceWorkload(RequestStream stream, std::size_t clients)
        : stream_(std::move(stream)), clients_(clients)
    {
        // Quiet dies (no process variation, no ADC noise: the service
        // benches' convention), so routing, not device noise, sets the
        // numbers. Unlike those benches the dies are calibrated when
        // built: the first local recovery after a failed verification
        // calibrates an uncalibrated die, which changes its modelled
        // settle times for the rest of the run (README.md, known
        // limits), so chip_ms_per_solve would depend on when that
        // happened.
        die_opts_.spec.variation.enabled = false;
        die_opts_.spec.adc_noise_sigma = 0.0;
        die_opts_.die_seed = 40;
        die_opts_.program_cache_capacity = 2;
    }

    ~ServiceWorkload() override { teardown(); }

    double
    setup() override
    {
        teardown();
        next_seq_ = 0;
        auto t0 = Clock::now();
        pool_ = std::make_unique<analog::DiePool>(2, die_opts_);
        for (std::size_t k = 0; k < pool_->size(); ++k)
            firstTouch(pool_->die(k), stream_);
        svc_ = std::make_unique<service::SolveService>(*pool_, sopts_);
        return secondsSince(t0);
    }

    WindowResult
    run(double seconds, std::size_t max_requests,
        Tracer &tracer) override
    {
        service::ServiceMetrics before = svc_->metrics();
        Dispenser disp(next_seq_, stream_.cycleLength(), seconds,
                       max_requests);
        std::vector<std::vector<RequestRecord>> per_client(clients_);
        auto t0 = Clock::now();
        std::vector<std::exception_ptr> errors(clients_);
        std::atomic<std::size_t> done{0};
        double rss = 0.0; // written by one client, read after the joins
        std::vector<std::thread> threads;
        for (std::size_t c = 0; c < clients_; ++c)
            threads.emplace_back([&, c] {
                try {
                    std::uint64_t i = 0;
                    while (disp.take(i)) {
                        per_client[c].push_back(one(i, tracer));
                        if (++done == stream_.cycleLength())
                            rss = peakRssMb();
                    }
                } catch (...) {
                    errors[c] = std::current_exception();
                }
            });
        for (auto &t : threads)
            t.join();
        for (auto &e : errors)
            if (e)
                std::rethrow_exception(e);
        WindowResult w;
        w.wall_s = secondsSince(t0);
        w.peak_rss_mb = rss > 0.0 ? rss : peakRssMb();
        next_seq_ = disp.issuedEnd();
        for (auto &v : per_client)
            for (auto &r : v)
                w.records.push_back(std::move(r));
        std::sort(w.records.begin(), w.records.end(),
                  [](const RequestRecord &x, const RequestRecord &y) {
                      return x.seq < y.seq;
                  });

        service::ServiceMetrics after = svc_->metrics();
        ServiceDelta &d = w.service;
        d.present = true;
        for (std::size_t k = 0; k < after.dies.size(); ++k)
            d.integrate_s += after.dies[k].integrate_seconds -
                             (k < before.dies.size()
                                  ? before.dies[k].integrate_seconds
                                  : 0.0);
        d.die_wall_s = (after.wall_seconds - before.wall_seconds) *
                       static_cast<double>(after.dies.size());
        d.rounds = after.batches - before.batches;
        d.completed = after.completed - before.completed;
        d.affinity_hits = after.affinity_hits - before.affinity_hits;
        d.affinity_misses =
            after.affinity_misses - before.affinity_misses;
        d.cache_hits = after.cache_hits - before.cache_hits;
        d.cache_misses = after.cache_misses - before.cache_misses;
        d.evictions = after.cache_evictions - before.cache_evictions;
        d.analog_failures =
            after.analog_failures - before.analog_failures;
        return w;
    }

    RhsProbe
    probeRhs() override
    {
        analog::AnalogLinearSolver solver(die_opts_);
        configureOnce(solver, stream_.aside(bySize(stream_).front()));
        return timeRhs(solver);
    }

  private:
    RequestRecord
    one(std::uint64_t i, Tracer &tracer)
    {
        Request q = stream_.make(i);
        service::SolveRequest sr;
        sr.a = q.pattern->a;
        sr.b = q.b;
        sr.tolerance = q.pattern->tolerance;

        double start = tracer.now();
        auto t0 = Clock::now();
        service::SolveResponse r = svc_->submit(std::move(sr)).get();
        double latency = secondsSince(t0);
        if (tracer.enabled()) {
            std::uint64_t root =
                tracer.record("request", i, start, start + latency);
            traceResponse(tracer, root, i, start, r.queue_seconds,
                          r.phases);
        }

        RequestRecord rec;
        rec.seq = i;
        rec.pattern = q.pattern->label;
        rec.latency_s = latency;
        rec.claim.ok = r.status == service::RequestStatus::Ok;
        rec.claim.verified = r.verified;
        rec.claim.converged = r.converged;
        rec.claim.tolerance = q.pattern->tolerance;
        rec.claim.verify_bar = sopts_.verify_rel_residual;
        rec.rel_residual = relResidual(q.a(), q.b, r.u);
        rec.verdict = judge(rec.claim, r.u, rec.rel_residual);
        rec.lane = r.lane;
        rec.degraded = r.degraded;
        rec.chip_s = r.analog_seconds;
        rec.queue_s = r.queue_seconds;
        rec.service_s = r.service_seconds;
        rec.phases = r.phases;
        rec.attempts = r.attempts;
        rec.passes = r.refine_passes;
        rec.reroutes = r.reroutes;
        rec.die = r.die;
        rec.krylov_iters = r.krylov_iterations;
        rec.applies = r.precond_applies;
        return rec;
    }

    void
    teardown()
    {
        svc_.reset(); // stops and joins before the pool goes
        pool_.reset();
    }

    RequestStream stream_;
    std::size_t clients_;
    analog::AnalogSolverOptions die_opts_;
    service::ServiceOptions sopts_;
    std::unique_ptr<analog::DiePool> pool_;
    std::unique_ptr<service::SolveService> svc_;
    std::uint64_t next_seq_ = 0;
};

// ---------------------------------------------------------------------

/** Nominal host seconds of one spd-refine round: a round took 23 to
 *  35 s on the 4-core machine of the README's baseline, with the host's
 *  speed. A window is a fixed number of rounds, so its mix of request
 *  classes, and with it the rank the tail percentile lands on, does not
 *  change with how fast the host or the program runs. */
constexpr double kRoundSeconds = 24.0;

class RefineWorkload : public Workload
{
  public:
    /** The stream's cycle is the clients' request sequences end to end;
     *  client c runs [lane_ends[c - 1], lane_ends[c]) of it. */
    RefineWorkload(RequestStream stream, std::vector<std::size_t> lane_ends)
        : stream_(std::move(stream)), lane_ends_(std::move(lane_ends)),
          lanes_(lane_ends_.size())
    {}

    /** Builds every client's solver at once, one thread each. */
    double
    setup() override
    {
        for (Lane &l : lanes_)
            l = Lane{};
        next_seq_ = 0;
        auto t0 = Clock::now();
        forEachLane([&](Lane &l, std::size_t) {
            l.solver = std::make_unique<analog::AnalogLinearSolver>();
            firstTouch(*l.solver, stream_);
        });
        return secondsSince(t0);
    }

    /**
     * Rounds of one cycle each, round r running cycle r of the stream:
     * each client its own slice, in order, on its own solver, so each
     * solver's sequence, and with it every modelled number, is a pure
     * function of the seed. The window is seconds / kRoundSeconds
     * rounds (at least one), or enough rounds for `max_requests`.
     */
    WindowResult
    run(double seconds, std::size_t max_requests,
        Tracer &tracer) override
    {
        std::size_t cycle = stream_.cycleLength();
        std::size_t rounds =
            max_requests != 0
                ? (max_requests + cycle - 1) / cycle
                : std::max<std::size_t>(
                      1, static_cast<std::size_t>(
                             std::lround(seconds / kRoundSeconds)));
        std::vector<std::vector<RequestRecord>> per_lane(lanes_.size());
        WindowResult w;
        auto t0 = Clock::now();
        for (std::size_t round = 0; round < rounds; ++round) {
            std::uint64_t base = next_seq_;
            forEachLane([&](Lane &l, std::size_t c) {
                for (std::size_t k = c ? lane_ends_[c - 1] : 0;
                     k < lane_ends_[c]; ++k)
                    per_lane[c].push_back(one(l, base + k, tracer));
            });
            next_seq_ = base + cycle;
            if (round == 0)
                w.peak_rss_mb = peakRssMb();
        }
        w.wall_s = secondsSince(t0);
        for (auto &v : per_lane)
            for (auto &rec : v)
                w.records.push_back(std::move(rec));
        std::sort(w.records.begin(), w.records.end(),
                  [](const RequestRecord &x, const RequestRecord &y) {
                      return x.seq < y.seq;
                  });
        return w;
    }

    RhsProbe
    probeRhs() override
    {
        analog::AnalogLinearSolver solver;
        configureOnce(solver, stream_.aside(bySize(stream_).front()));
        return timeRhs(solver);
    }

  private:
    /** One client: its solver and its place in the driver's log. */
    struct Lane {
        std::unique_ptr<analog::AnalogLinearSolver> solver;
        std::size_t cursor = 0;
        std::size_t exec_starts = 0;
    };

    /** fn(lane, index) on one thread per lane; rethrows the first
     *  error after every thread has joined. */
    template <class Fn>
    void
    forEachLane(Fn fn)
    {
        std::vector<std::exception_ptr> errors(lanes_.size());
        std::vector<std::thread> threads;
        for (std::size_t c = 0; c < lanes_.size(); ++c)
            threads.emplace_back([&, c] {
                try {
                    fn(lanes_[c], c);
                } catch (...) {
                    errors[c] = std::current_exception();
                }
            });
        for (auto &t : threads)
            t.join();
        for (auto &e : errors)
            if (e)
                std::rethrow_exception(e);
    }

    /** Accelerator runs of a lane so far, counted from its driver's
     *  command log (RefineOutcome does not carry attempts). */
    static std::size_t
    execStarts(Lane &l)
    {
        const auto &trace = l.solver->driverRef().trace();
        if (trace.size() < l.cursor)
            l.cursor = 0; // a regrow replaced the driver
        for (; l.cursor < trace.size(); ++l.cursor)
            if (trace[l.cursor].op == isa::Opcode::ExecStart)
                ++l.exec_starts;
        return l.exec_starts;
    }

    RequestRecord
    one(Lane &l, std::uint64_t i, Tracer &tracer)
    {
        analog::AnalogLinearSolver &solver = *l.solver;
        Request q = stream_.make(i);
        analog::RefineOptions ro;
        ro.tolerance = q.pattern->tolerance;

        RequestRecord rec;
        rec.seq = i;
        rec.pattern = q.pattern->label;
        rec.claim.tolerance = ro.tolerance;
        std::size_t runs0 = execStarts(l);
        double start = tracer.now();
        auto t0 = Clock::now();
        // The answer, whichever library call produced it.
        la::Vector u;
        try {
            if (q.pattern->precond) {
                analog::PrecondSolveOptions po;
                po.tolerance = ro.tolerance;
                auto out = solver.solvePreconditioned(q.a(), q.b, po);
                rec.lane = service::SolveLane::AnalogPrecond;
                rec.claim.converged = out.converged;
                rec.chip_s = out.analog_seconds;
                rec.phases = out.phases;
                rec.krylov_iters = out.iterations;
                rec.applies = out.precond_applies;
                u = std::move(out.u);
            } else {
                auto out = analog::refineSolve(solver, q.a(), q.b, ro);
                rec.lane = service::SolveLane::AnalogRefined;
                rec.claim.converged = out.converged;
                rec.chip_s = out.analog_seconds;
                rec.phases = out.phases;
                rec.passes = out.passes;
                for (std::size_t k = 1;
                     k < out.config_bytes_history.size(); ++k) {
                    rec.later_pass_bytes += out.config_bytes_history[k];
                    ++rec.later_passes;
                }
                u = std::move(out.u);
            }
            rec.claim.ok = true;
        } catch (const std::exception &) {
            rec.claim.ok = false;
        }
        double call = secondsSince(t0);
        rec.latency_s = call;
        rec.service_s = call;
        rec.attempts = execStarts(l) - runs0;
        if (tracer.enabled()) {
            std::uint64_t root =
                tracer.record("request", i, start, start + call);
            std::uint64_t rs = tracer.record(
                q.pattern->precond ? "solvePreconditioned" : "refineSolve",
                i, start, start + call, root);
            traceResponse(tracer, rs, i, start, 0.0, rec.phases);
        }
        rec.rel_residual = relResidual(q.a(), q.b, u);
        rec.verdict = judge(rec.claim, u, rec.rel_residual);
        return rec;
    }

    RequestStream stream_;
    std::vector<std::size_t> lane_ends_;
    std::vector<Lane> lanes_;
    std::uint64_t next_seq_ = 0;
};

// ---------------------------------------------------------------------

/** Expand per-pattern counts into a cycle of pattern indices. */
std::vector<std::size_t>
cycleOf(const std::vector<std::size_t> &counts)
{
    std::vector<std::size_t> cycle;
    for (std::size_t p = 0; p < counts.size(); ++p)
        cycle.insert(cycle.end(), counts[p], p);
    return cycle;
}

std::unique_ptr<Workload>
stencilStream(std::uint64_t seed)
{
    // Eight cheap SPD patterns, hottest first, for 2 dies x 2 cache
    // slots; Zipf-like 1/rank counts over a 40-request cycle.
    std::vector<Pattern> ps = {
        poisson(2, 3),
        poisson(1, 4),
        deck("rgrid-3x3", spice::gridDeck({.rows = 3, .cols = 3})),
        poisson(1, 5),
        poisson(2, 4),
        deck("rgrid-3x4", spice::gridDeck({.rows = 3, .cols = 4})),
        poisson(1, 6),
        poisson(1, 7),
    };
    return std::make_unique<ServiceWorkload>(
        RequestStream(std::move(ps), cycleOf({15, 7, 5, 4, 3, 2, 2, 2}),
                      seed),
        4);
}

std::unique_ptr<Workload>
spdRefine(std::uint64_t seed)
{
    // Algorithm-2 refinement on n in {8, 12} x kappa in {2, 5, 10},
    // plus analog-preconditioned CG on the n = 8, kappa = 10 system,
    // all to 1e-8. kappa = 20 is left out: 13-14 passes and 8-22 s a
    // request, it would fill most of a window (README.md, known
    // limits). The order is fixed and the seed only picks power-of-two
    // scales: the solver carries range memory from one request to the
    // next, and a seeded order moved chip_ms_per_solve between 10.1 and
    // 12.7 ms over ten seeds.
    //
    // Four clients, each with its own solver, run at once: one client
    // left three cores idle, and its speed then wandered by +-15% from
    // run to run on identical work, against +-3% for four at once. Each
    // client runs short kappa = 2 requests (n = 8 and 12 in turn)
    // around its share of the five hard ones, padded so the clients
    // finish together. With five hard requests in a round, the tail
    // percentile (ten samples beyond it) falls among the ~280 kappa = 2
    // requests from every client and the whole round, not on one of a
    // few hard requests whose latency moved 40% between identical
    // copies when the host was busy.
    std::vector<Pattern> ps;
    for (std::size_t n : {8, 12})
        for (double kappa : {2.0, 5.0, 10.0})
            ps.push_back(spd(n, kappa, 1e-8));
    ps.push_back(spd(8, 10.0, 1e-8));
    ps.back().label += "-pcg";
    ps.back().precond = true;
    enum : std::size_t { N8K2, N8K5, N8K10, N12K2, N12K5, N12K10, PCG };
    // Per client: kappa = 2 group sizes, with one hard request between
    // each two groups.
    const std::vector<std::pair<std::vector<std::size_t>,
                                std::vector<std::size_t>>>
        clients = {
            {{33, 33}, {N12K10}},
            {{33, 33}, {N8K10}},
            {{24, 23, 24}, {N8K5, N12K5}},
            {{38, 38}, {PCG}},
        };
    std::vector<std::size_t> cycle, lane_ends;
    for (const auto &[groups, hard] : clients) {
        for (std::size_t g = 0; g < groups.size(); ++g) {
            for (std::size_t k = 0; k < groups[g]; ++k)
                cycle.push_back(k % 2 ? N12K2 : N8K2);
            if (g < hard.size())
                cycle.push_back(hard[g]);
        }
        lane_ends.push_back(cycle.size());
    }
    return std::make_unique<RefineWorkload>(
        RequestStream(std::move(ps), std::move(cycle), seed, false),
        std::move(lane_ends));
}

std::unique_ptr<Workload>
mixedLadder(std::uint64_t seed)
{
    // Requests from ~5 ms to ~1 s across every rung of the Auto
    // ladder: nonsymmetric convection straight to the preconditioned
    // lane, 1D Poisson l = 8/10 sometimes failing the 0.2 verify bar
    // and rerouting, circuit decks slow to settle, SPD kappa = 5 at
    // 1e-8 in the refinement lane. Cheap patterns come twice per
    // cycle and the 0.8 s convection case once, so a run holds ~100
    // requests.
    // Two clients, not four, and SPD kappa = 20 left out: both made a
    // run's throughput hinge on how the few multi-second requests
    // happened to pair in rounds (README.md, workloads).
    std::vector<Pattern> ps = {
        convection(3, 0.5),
        convection(3, 2.0),
        convection(4, 0.5),
        convection(4, 2.0),
        poisson(1, 8),
        poisson(1, 10),
        deck("rc-ladder-6", spice::ladderDeck({.sections = 6})),
        deck("pi-mesh-4", spice::meshDeck({.cells = 4})),
        poisson(2, 3),
        spd(8, 5.0, 1e-8),
    };
    return std::make_unique<ServiceWorkload>(
        RequestStream(std::move(ps),
                      cycleOf({1, 2, 2, 2, 2, 2, 2, 2, 3, 2}), seed),
        2);
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "stencil-stream", "spd-refine", "mixed-ladder"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed)
{
    if (name == "stencil-stream")
        return stencilStream(seed);
    if (name == "spd-refine")
        return spdRefine(seed);
    if (name == "mixed-ladder")
        return mixedLadder(seed);
    return nullptr;
}

} // namespace aa::perfbench
