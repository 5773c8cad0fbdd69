/**
 * @file
 * simbench — one run of one benchmark workload, timed from outside
 * the library through its public API (Rack, Testbed, findCapacity,
 * windowFor, Testbed::measure/measureClosedLoop, makeWorkload,
 * EventQueue, Histogram). run.py calls it once per repetition, each
 * repetition a fresh single-threaded process, and aggregates.
 *
 *   simbench --workload W --seed N              untraced run
 *   simbench --workload W --seed N --trace F    traced run: spans
 *       around every public call, outside-in layer replays, spans
 *       written to F as JSON at exit
 *   ... --crosscheck                            fig4_capacity only:
 *       also run runExperiment per cell and compare its RunResult
 *
 * Prints one JSON object on stdout. Everything is host time unless
 * a name says "sim" (simulated). The digest hashes the simulated
 * outputs (never the event count), so a speed-only change must leave
 * it unchanged.
 */

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdlib>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/efficiency.hh"
#include "core/experiment.hh"
#include "core/rack.hh"
#include "core/testbed.hh"
#include "core/throughput_search.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "stats/histogram.hh"
#include "workloads/fio.hh"
#include "workloads/registry.hh"

using namespace snic;
using namespace snic::core;
using hw::Platform;

namespace {

using Clock = std::chrono::steady_clock;

std::int64_t
nsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a)
        .count();
}

/** Peak resident set of this process image (VmHWM; unlike
 *  getrusage's ru_maxrss it does not inherit the parent's peak
 *  across exec). */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    sim::fatal("simbench: no VmHWM in /proc/self/status");
}

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

/** Host-time spans kept in memory, written out once at exit. Spans
 *  nest strictly (single thread), so a span's self time is its
 *  duration minus its direct children's durations. */
class SpanRecorder
{
  public:
    struct Span
    {
        std::string name;
        int parent = -1;
        std::int64_t startNs = 0;
        std::int64_t endNs = 0;

        std::int64_t durNs() const { return endNs - startNs; }
    };

    int
    open(std::string name, Clock::time_point at)
    {
        const int parent = _open.empty() ? -1 : _open.back();
        _spans.push_back({std::move(name), parent, nsBetween(_t0, at), 0});
        _open.push_back(static_cast<int>(_spans.size()) - 1);
        return _open.back();
    }

    void
    close(int idx, Clock::time_point at)
    {
        if (_open.empty() || _open.back() != idx)
            sim::fatal("simbench: span %d closed out of order", idx);
        _open.pop_back();
        _spans[idx].endNs = nsBetween(_t0, at);
    }

    std::int64_t
    selfNs(int idx) const
    {
        std::int64_t self = _spans[idx].durNs();
        for (const Span &s : _spans)
            if (s.parent == idx)
                self -= s.durNs();
        return self;
    }

    /** Sum of self times over the tree rooted at @p root. */
    std::int64_t
    treeSelfNs(int root) const
    {
        std::int64_t sum = selfNs(root);
        for (std::size_t i = 0; i < _spans.size(); ++i)
            if (_spans[i].parent == root)
                sum += treeSelfNs(static_cast<int>(i));
        return sum;
    }

    const std::vector<Span> &spans() const { return _spans; }

    void
    write(const std::string &path) const
    {
        std::ofstream out(path);
        if (!out)
            sim::fatal("simbench: cannot write %s", path.c_str());
        out << "{\"spans\": [\n";
        for (std::size_t i = 0; i < _spans.size(); ++i) {
            const Span &s = _spans[i];
            out << "  {\"id\": " << i << ", \"name\": \"" << s.name
                << "\", \"parent\": " << s.parent
                << ", \"start_ns\": " << s.startNs
                << ", \"dur_ns\": " << s.durNs()
                << ", \"self_ns\": " << selfNs(static_cast<int>(i))
                << "}" << (i + 1 < _spans.size() ? "," : "") << "\n";
        }
        out << "]}\n";
    }

  private:
    Clock::time_point _t0 = Clock::now();
    std::vector<Span> _spans;
    std::vector<int> _open;
};

/** Times one region; records it as a span when a recorder is given.
 *  Untraced and traced runs take the same two clock reads, so the
 *  spans themselves are the only difference between them. */
class Scope
{
  public:
    Scope(SpanRecorder *rec, std::string name)
        : _rec(rec), _start(Clock::now())
    {
        if (_rec)
            _idx = _rec->open(std::move(name), _start);
    }
    ~Scope() { close(); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    /** End the region (idempotent); returns its seconds. */
    double
    close()
    {
        if (!_closed) {
            _end = Clock::now();
            if (_rec)
                _rec->close(_idx, _end);
            _closed = true;
        }
        return static_cast<double>(nsBetween(_start, _end)) * 1e-9;
    }

    int index() const { return _idx; }

  private:
    SpanRecorder *_rec;
    Clock::time_point _start;
    Clock::time_point _end;
    int _idx = -1;
    bool _closed = false;
};

// ---------------------------------------------------------------------
// Output digest
// ---------------------------------------------------------------------

/** FNV-1a over the simulated outputs (values hashed by bit pattern). */
class Digest
{
  public:
    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            _h ^= (v >> (8 * i)) & 0xff;
            _h *= 0x100000001b3ull;
        }
    }
    void
    add(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        add(bits);
    }
    void
    add(const std::string &s)
    {
        for (const char c : s) {
            _h ^= static_cast<unsigned char>(c);
            _h *= 0x100000001b3ull;
        }
        add(static_cast<std::uint64_t>(s.size()));
    }

    std::string
    hex() const
    {
        char buf[17];
        std::snprintf(buf, sizeof buf, "%016" PRIx64, _h);
        return buf;
    }

  private:
    std::uint64_t _h = 0xcbf29ce484222325ull;
};

void
digestMeasurement(Digest &d, const Measurement &m)
{
    d.add(m.completed);
    d.add(m.generated);
    d.add(m.floodCompleted);
    d.add(m.latency.p50());
    d.add(m.latency.p99());
    d.add(m.latency.max());
    d.add(m.achievedGbps);
    d.add(m.goodputGbps);
    for (const StageSnapshot &s : m.stageStats) {
        d.add(s.name);
        d.add(s.accepted);
        d.add(s.forwarded);
        d.add(s.dropped);
        d.add(s.droppedStale);
    }
    const power::EnergyReading &e = m.energy;
    d.add(e.seconds);
    d.add(e.hostUtil);
    d.add(e.snicCpuUtil);
    d.add(e.accelUtil);
    d.add(e.nicGbps);
    d.add(e.avgServerWatts);
    d.add(e.avgSnicWatts);
    d.add(e.serverJoules);
    const hw::BatchingSnapshot &b = m.accelBatching;
    d.add(b.batches);
    d.add(b.members);
    d.add(b.fullDispatches);
    d.add(b.timerDispatches);
    d.add(static_cast<std::uint64_t>(b.maxOccupancy));
}

void
digestCapacity(Digest &d, const Capacity &c)
{
    d.add(c.gbps);
    d.add(c.requestGbps);
    d.add(c.rps);
    d.add(static_cast<std::uint64_t>(c.attempts));
    d.add(static_cast<std::uint64_t>(c.saturated));
}

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

/** One measure call whose completions the workload reports. */
struct LoadPoint
{
    /** The functions each request is planned through, in order. */
    ChainSpec chain;
    std::uint64_t events = 0;     ///< fired during the call
    std::uint64_t completed = 0;  ///< in the measured window
    /** Requests planned during the call: the window's generated
     *  count scaled to warmup + window (a constant offered rate). */
    double planned = 0.0;
    double hostS = 0.0;
};

/** Everything one run reports, host time unless named sim. */
struct RunOutcome
{
    double setupS = 0.0;   ///< config -> ready Rack/Testbed, summed
    double wallS = 0.0;    ///< whole workload, setup included
    double runS = 0.0;     ///< run phase (search + measurement)
    double searchS = 0.0;
    double loadPointS = 0.0;
    std::uint64_t searchAttempts = 0;
    std::uint64_t events = 0;     ///< sim events of the run phase
    std::uint64_t completed = 0;  ///< sim completions, load points
    std::size_t poolSlots = 0;    ///< largest EventQueue pool seen
    /** Every workload instance a constructor set up, by id. */
    std::vector<std::string> instances;
    std::vector<LoadPoint> loadPoints;
    /** Load-point latencies merged (ticks), for the record replay. */
    stats::Histogram latency;
    /** fig4_capacity: RunResult composed per cell, for the check
     *  against runExperiment. */
    std::vector<RunResult> cells;
    Digest digest;
    int workloadSpan = -1;
};

/** Time the constructor of a Rack or Testbed (set-up: assembly plus
 *  every function's Workload::setup) and note the instances built. */
template <typename T, typename Config>
std::unique_ptr<T>
construct(SpanRecorder *rec, const char *span, RunOutcome &out,
          const Config &cfg, const ChainSpec &chain, unsigned copies)
{
    std::unique_ptr<T> built;
    {
        Scope s(rec, span);
        built = std::make_unique<T>(cfg);
        out.setupS += s.close();
    }
    for (unsigned i = 0; i < copies; ++i)
        for (const FunctionStageSpec &fs : chain.stages)
            out.instances.push_back(fs.workloadId);
    return built;
}

/** Time one measurement call whose completions the workload reports
 *  and book it as a load point. @p body runs the call and returns its
 *  (aggregate) window. */
template <typename Body>
const Measurement &
loadPoint(SpanRecorder *rec, const char *span, RunOutcome &out,
          const ChainSpec &chain, const sim::EventQueue &q,
          sim::Tick warmup, sim::Tick window, Body &&body)
{
    LoadPoint lp;
    lp.chain = chain;
    const std::uint64_t before = q.numFired();
    const Measurement *m = nullptr;
    {
        Scope s(rec, span);
        m = &body();
        lp.hostS = s.close();
    }
    lp.events = q.numFired() - before;
    lp.completed = m->completed;
    lp.planned = static_cast<double>(m->generated) *
                 static_cast<double>(warmup + window) /
                 static_cast<double>(window);
    out.runS += lp.hostS;
    out.loadPointS += lp.hostS;
    out.completed += lp.completed;
    out.latency.merge(m->latency);
    out.loadPoints.push_back(lp);
    digestMeasurement(out.digest, *m);
    return *m;
}

/** Book the simulation's totals, then time the teardown. */
template <typename T>
void
teardown(SpanRecorder *rec, RunOutcome &out, std::unique_ptr<T> &obj)
{
    const sim::EventQueue &q = obj->sim().events();
    out.events += q.numFired();
    out.poolSlots = std::max(out.poolSlots, q.poolSlots());
    Scope s(rec, "teardown");
    obj.reset();
}

/**
 * rack_scaleout: the rack_m32 point. 32 members run micro_udp_1024 on
 * the host CPU behind a round_robin ToR at 6 Gbps per member, open
 * loop, 1 ms warmup + 59 ms window. Planning is trivial, so host time
 * is scheduler and datapath.
 */
void
runRackScaleout(std::uint64_t seed, SpanRecorder *rec, RunOutcome &out)
{
    constexpr unsigned members = 32;
    constexpr double perMemberGbps = 6.0;
    const sim::Tick warmup = sim::msToTicks(1.0);
    const sim::Tick window = sim::msToTicks(59.0);

    RackConfig cfg;
    cfg.workloadId = "micro_udp_1024";
    cfg.platform = Platform::HostCpu;
    cfg.servers = members;
    cfg.policy = net::DispatchPolicy::RoundRobin;
    cfg.seed = seed;
    const ChainSpec chain = ChainSpec::single(cfg.workloadId, cfg.platform);

    Scope whole(rec, "workload");
    out.workloadSpan = whole.index();
    auto rack =
        construct<Rack>(rec, "construct.Rack", out, cfg, chain, members);
    RackMeasurement rm;
    loadPoint(rec, "measure.Rack", out, chain, rack->sim().events(),
              warmup, window, [&]() -> const Measurement & {
                  rm = rack->measure(perMemberGbps * members, warmup,
                                     window);
                  return rm.aggregate;
              });
    for (const Measurement &m : rm.perServer)
        digestMeasurement(out.digest, m);
    for (const std::uint64_t n : rm.dispatched)
        out.digest.add(n);
    out.digest.add(rm.imbalance);
    teardown(rec, out, rack);
    out.wallS = whole.close();
}

/**
 * chain_offload: one server, comp_app_dec@engine -> rem_exe@engine ->
 * redis_a@SNIC-CPU at 30 Gbps open loop (about half of capacity):
 * coalescing engines, PCIe transfer stages, three plans per request
 * and real KV reads and writes. Heavy set-up (DFA compile, Deflate
 * profiling, KVS load).
 */
void
runChainOffload(std::uint64_t seed, SpanRecorder *rec, RunOutcome &out)
{
    constexpr double offeredGbps = 30.0;
    const sim::Tick warmup = sim::msToTicks(2.0);
    const sim::Tick window = sim::msToTicks(6000.0);

    TestbedConfig cfg;
    cfg.chain.then("comp_app_dec", Platform::SnicAccel)
        .then("rem_exe", Platform::SnicAccel)
        .then("redis_a", Platform::SnicCpu);
    cfg.seed = seed;

    Scope whole(rec, "workload");
    out.workloadSpan = whole.index();
    auto bed = construct<Testbed>(rec, "construct.Testbed", out, cfg,
                                  cfg.chain, 1);
    Measurement m;
    loadPoint(rec, "measure.Testbed", out, cfg.chain, bed->sim().events(),
              warmup, window, [&]() -> const Measurement & {
                  m = bed->measure(offeredGbps, warmup, window);
                  return m;
              });
    teardown(rec, out, bed);
    out.wallS = whole.close();
}

struct Fig4Cell
{
    const char *workloadId;
    Platform platform;
};

/** Every stack kind and platform once or more; fio_read is the
 *  closed-loop cell. */
const std::vector<Fig4Cell> &
fig4Cells()
{
    static const std::vector<Fig4Cell> cells = {
        {"micro_udp_64", Platform::HostCpu},
        {"micro_udp_64", Platform::SnicCpu},
        {"redis_a", Platform::HostCpu},
        {"nat_1m", Platform::HostCpu},
        {"ovs_100", Platform::HostCpu},
        {"fio_read", Platform::HostCpu},
        {"redis_c", Platform::SnicCpu},
        {"bm25_100", Platform::SnicCpu},
        {"mica_b4", Platform::SnicCpu},
        {"crypto_aes", Platform::SnicCpu},
        {"xdp_echo_64", Platform::SnicCpu},
        {"rem_img", Platform::SnicAccel},
        {"comp_app", Platform::SnicAccel},
    };
    return cells;
}

/** One cell of the paper's procedure, composed from the public calls
 *  exactly as runExperiment composes them. */
RunResult
runFig4Cell(const Fig4Cell &cell, const ExperimentOptions &opts,
            SpanRecorder *rec, RunOutcome &out)
{
    const std::string tag = std::string(cell.workloadId) + "@" +
                            hw::platformName(cell.platform);
    Scope cellScope(rec, "cell." + tag);
    out.digest.add(tag);

    TestbedConfig cfg;
    cfg.workloadId = cell.workloadId;
    cfg.platform = cell.platform;
    cfg.seed = opts.seed;
    const ChainSpec chain = ChainSpec::single(cfg.workloadId, cfg.platform);
    auto bed =
        construct<Testbed>(rec, "construct.Testbed", out, cfg, chain, 1);
    const sim::EventQueue &q = bed->sim().events();

    RunResult r;
    r.workloadId = cell.workloadId;
    r.platform = cell.platform;
    Measurement m;
    if (bed->workload().spec().family == "fio") {
        // Closed loop: capacity and latency come from one run.
        double est = 0.0;
        {
            Scope s(rec, "estimate");
            est = bed->estimateCapacityRps();
            out.runS += s.close();
        }
        const sim::Tick window = windowFor(est, opts);
        loadPoint(rec, "load_point.measureClosedLoop", out, chain, q,
                  opts.warmup, window, [&]() -> const Measurement & {
                      m = bed->measureClosedLoop(workloads::Fio::ioDepth,
                                                 opts.warmup, window);
                      return m;
                  });
        r.maxGbps = m.goodputGbps;
        r.maxRps = m.achievedRps;
    } else {
        Capacity cap;
        {
            Scope s(rec, "search.findCapacity");
            cap = findCapacity(*bed, opts);
            const double sec = s.close();
            out.searchS += sec;
            out.runS += sec;
        }
        out.searchAttempts += static_cast<std::uint64_t>(cap.attempts);
        digestCapacity(out.digest, cap);
        const double specLf = bed->workload().spec().operatingLoadFactor;
        const double rate =
            cap.requestGbps * (specLf > 0.0 ? specLf : opts.loadFactor);
        const sim::Tick window = windowFor(cap.rps, opts);
        loadPoint(rec, "load_point.measure", out, chain, q, opts.warmup,
                  window, [&]() -> const Measurement & {
                      m = bed->measure(rate, opts.warmup, window);
                      return m;
                  });
        r.maxGbps = cap.gbps;
        r.maxRps = cap.rps;
    }
    r.p99Us = m.p99Us();
    r.p50Us = m.p50Us();
    r.meanUs = m.meanUs();
    r.energy = m.energy;
    r.accelBatching = m.accelBatching;
    r.accelRing = m.accelRing;
    r.efficiencyRpsPerJoule = efficiencyRpsPerJoule(r);
    r.efficiencyGbpsPerWatt = efficiencyGbpsPerWatt(r);
    teardown(rec, out, bed);
    return r;
}

/**
 * fig4_capacity: the paper's procedure (find capacity, then p99 and
 * power at the load point) on 13 cells covering every stack kind and
 * platform. Many short simulations, so set-up and search count.
 */
void
runFig4Capacity(std::uint64_t seed, SpanRecorder *rec, RunOutcome &out)
{
    ExperimentOptions opts;
    opts.seed = seed;
    Scope whole(rec, "workload");
    out.workloadSpan = whole.index();
    for (const Fig4Cell &cell : fig4Cells())
        out.cells.push_back(runFig4Cell(cell, opts, rec, out));
    out.wallS = whole.close();
}

/** Bitwise equality of the RunResult fields runExperiment fills. */
bool
sameRunResult(const RunResult &a, const RunResult &b)
{
    auto same = [](double x, double y) {
        return std::memcmp(&x, &y, sizeof x) == 0;
    };
    const power::EnergyReading &ea = a.energy;
    const power::EnergyReading &eb = b.energy;
    return a.workloadId == b.workloadId && a.platform == b.platform &&
           same(a.maxGbps, b.maxGbps) && same(a.maxRps, b.maxRps) &&
           same(a.p99Us, b.p99Us) && same(a.p50Us, b.p50Us) &&
           same(a.meanUs, b.meanUs) && same(ea.seconds, eb.seconds) &&
           same(ea.hostUtil, eb.hostUtil) &&
           same(ea.snicCpuUtil, eb.snicCpuUtil) &&
           same(ea.accelUtil, eb.accelUtil) &&
           same(ea.nicGbps, eb.nicGbps) &&
           same(ea.avgServerWatts, eb.avgServerWatts) &&
           same(ea.avgSnicWatts, eb.avgSnicWatts) &&
           same(ea.serverJoules, eb.serverJoules) &&
           same(a.efficiencyRpsPerJoule, b.efficiencyRpsPerJoule) &&
           same(a.efficiencyGbpsPerWatt, b.efficiencyGbpsPerWatt) &&
           a.accelBatching.batches == b.accelBatching.batches &&
           a.accelBatching.members == b.accelBatching.members &&
           a.accelRing.admissions == b.accelRing.admissions &&
           a.accelRing.parked == b.accelRing.parked;
}

// ---------------------------------------------------------------------
// Outside-in layer replays
// ---------------------------------------------------------------------

/** Keep the compiler from discarding work whose result is unused. */
template <typename T>
void
doNotOptimize(const T &value)
{
    asm volatile("" : : "r"(&value) : "memory");
}

/** Run @p body (which reports how many operations it did) until at
 *  least @p minSec of host time has passed; returns ns per op. */
template <typename Body>
double
nsPerOp(double minSec, Body &&body)
{
    const auto t0 = Clock::now();
    std::uint64_t ops = 0;
    std::int64_t ns = 0;
    do {
        ops += body();
        ns = nsBetween(t0, Clock::now());
    } while (static_cast<double>(ns) < minSec * 1e9);
    return static_cast<double>(ns) / static_cast<double>(ops);
}

/** makeWorkload(id) + setup() on a fresh RNG seeded like the
 *  testbed's; host seconds per instance. Instances are destroyed
 *  outside the timed region, as the constructor's are. */
double
replaySetup(const std::string &id, std::uint64_t seed)
{
    std::vector<workloads::WorkloadPtr> built;
    std::int64_t ns = 0;
    do {
        const auto t0 = Clock::now();
        auto wl = workloads::makeWorkload(id);
        sim::Random rng(seed);
        wl->setup(rng);
        ns += nsBetween(t0, Clock::now());
        built.push_back(std::move(wl));
    } while (ns < 20'000'000);
    return 1e-9 * static_cast<double>(ns) /
           static_cast<double>(built.size());
}

/**
 * Workload::plan replayed over the chain's own request sizes: stage
 * 0 sees sizes drawn from its Spec, stage k the payload stage k-1
 * emits (the planChain rule). Returns ns per plan for each stage.
 */
std::vector<double>
replayPlans(const ChainSpec &chain, std::uint64_t seed)
{
    constexpr std::size_t requests = 2048;
    std::vector<workloads::WorkloadPtr> fns;
    sim::Random rng(seed);
    for (const FunctionStageSpec &fs : chain.stages) {
        fns.push_back(workloads::makeWorkload(fs.workloadId));
        fns.back()->setup(rng);
    }
    std::vector<std::vector<std::uint32_t>> inputs(fns.size());
    for (std::size_t i = 0; i < requests; ++i)
        inputs[0].push_back(fns[0]->spec().sizes.sample(rng));
    for (std::size_t k = 0; k + 1 < fns.size(); ++k) {
        for (const std::uint32_t bytes : inputs[k]) {
            const auto plan =
                fns[k]->plan(bytes, chain.stages[k].where, rng);
            inputs[k + 1].push_back(plan.responseBytes ? plan.responseBytes
                                                       : bytes);
        }
    }
    std::vector<double> ns;
    for (std::size_t k = 0; k < fns.size(); ++k) {
        ns.push_back(nsPerOp(0.02, [&] {
            for (const std::uint32_t bytes : inputs[k])
                doNotOptimize(
                    fns[k]->plan(bytes, chain.stages[k].where, rng));
            return static_cast<std::uint64_t>(requests);
        }));
    }
    return ns;
}

/**
 * EventQueue schedule/fire/cancel churn at @p depth pending events,
 * with the sched_churn horizon mix (mostly short, some µs-scale, a
 * rare far tail, ~2 % cancels). Returns ns per fired event.
 */
double
replayEventQueue(std::size_t depth, std::uint64_t seed)
{
    std::uint64_t lcg = 0x9e3779b97f4a7c15ull ^ seed;
    auto rnd = [&lcg] {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        return lcg >> 33;
    };
    return nsPerOp(0.15, [&] {
        sim::EventQueue q;
        std::vector<sim::EventId> cancelable;
        std::uint64_t fired = 0;
        while (fired < 500000) {
            while (q.numPending() < depth) {
                const std::uint64_t r = rnd();
                sim::Tick horizon;
                switch (r & 7) {
                  case 0:
                    horizon = 1 + (r >> 8) % 1000000;
                    break;
                  case 1:
                    horizon = 1 + (r >> 8) % 100000000;
                    break;
                  default:
                    horizon = 1 + (r >> 8) % 4000;
                    break;
                }
                const sim::EventId id =
                    q.schedule(q.curTick() + horizon, [] {});
                if ((r & 63) == 5)
                    cancelable.push_back(id);
            }
            for (const sim::EventId id : cancelable)
                q.deschedule(id);
            cancelable.clear();
            fired += q.runUntil(q.curTick() + 50000);
        }
        return fired;
    });
}

/** Histogram::record over samples drawn from the run's own latency
 *  distribution; ns per record. */
double
replayRecord(const stats::Histogram &latency, std::uint64_t seed)
{
    sim::Random rng(seed);
    std::vector<std::uint64_t> samples(65536);
    for (std::uint64_t &v : samples)
        v = latency.percentile(rng.uniform());
    return nsPerOp(0.05, [&] {
        stats::Histogram h;
        for (int pass = 0; pass < 16; ++pass)
            for (const std::uint64_t v : samples)
                h.record(v);
        doNotOptimize(h);
        return static_cast<std::uint64_t>(samples.size()) * 16;
    });
}

/** Per-layer metrics of a traced run, named as in BENCHMARK.json. */
std::map<std::string, double>
layerMetrics(const RunOutcome &out, std::uint64_t seed,
             SpanRecorder *rec)
{
    std::map<std::string, double> L;
    Scope replays(rec, "replays");

    // Setup and plan cost per function the workload uses.
    std::map<std::string, double> setupS;
    for (const std::string &id : out.instances) {
        if (!setupS.count(id)) {
            Scope s(rec, "replay.setup." + id);
            setupS[id] = replaySetup(id, seed);
        }
    }
    double instanceSetupS = 0.0;
    for (const std::string &id : out.instances)
        instanceSetupS += setupS[id];

    std::map<std::string, std::vector<double>> planNs;
    double planCostNs = 0.0;  // sum over load points
    for (const LoadPoint &lp : out.loadPoints) {
        std::vector<double> ns;
        {
            Scope s(rec, "replay.plan");
            ns = replayPlans(lp.chain, seed);
        }
        double perRequest = 0.0;
        for (std::size_t k = 0; k < ns.size(); ++k) {
            planNs[lp.chain.stages[k].workloadId].push_back(ns[k]);
            perRequest += ns[k];
        }
        planCostNs += lp.planned * perRequest;
    }

    double eventNs = 0.0;
    {
        Scope s(rec, "replay.EventQueue");
        eventNs = replayEventQueue(out.poolSlots, seed);
    }
    double recordNs = 0.0;
    {
        Scope s(rec, "replay.Histogram");
        recordNs = replayRecord(out.latency, seed);
    }

    std::uint64_t lpEvents = 0;
    std::uint64_t lpCompleted = 0;
    double lpHostS = 0.0;
    for (const LoadPoint &lp : out.loadPoints) {
        lpEvents += lp.events;
        lpCompleted += lp.completed;
        lpHostS += lp.hostS;
    }

    L["sim.events"] = static_cast<double>(out.events);
    L["sim.events_per_req"] = static_cast<double>(lpEvents) /
                              static_cast<double>(lpCompleted);
    L["sim.events_per_host_s"] =
        static_cast<double>(out.events) / out.runS;
    L["sim.pool_slots"] = static_cast<double>(out.poolSlots);
    L["sim.replay_ns_per_event"] = eventNs;
    for (const auto &[id, s] : setupS)
        L["workloads.setup_s." + id] = s;
    for (const auto &[id, v] : planNs) {
        double sum = 0.0;
        for (const double x : v)
            sum += x;
        L["workloads.plan_ns." + id] = sum / static_cast<double>(v.size());
    }
    L["stats.record_ns"] = recordNs;
    L["core.assemble_s"] = out.setupS - instanceSetupS;
    L["core.search_s"] = out.searchS;
    L["core.search_attempts"] = static_cast<double>(out.searchAttempts);
    L["core.load_point_s"] = out.loadPointS;
    const double explainedNs =
        static_cast<double>(lpEvents) * eventNs + planCostNs +
        static_cast<double>(lpCompleted) * recordNs;
    L["core.run_residual_share"] = 1.0 - explainedNs / (lpHostS * 1e9);
    return L;
}

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: simbench --workload "
                 "{rack_scaleout|chain_offload|fig4_capacity} "
                 "--seed N [--trace SPANS.json] [--crosscheck]\n");
    std::exit(2);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    sim::setLogLevel(sim::LogLevel::Quiet);

    std::string workload;
    std::uint64_t seed = 0;
    bool haveSeed = false;
    std::string spansPath;
    bool crosscheck = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--workload" && i + 1 < argc) {
            workload = argv[++i];
        } else if (arg == "--seed" && i + 1 < argc) {
            char *end = nullptr;
            seed = std::strtoull(argv[++i], &end, 10);
            haveSeed = end && *end == '\0';
        } else if (arg == "--trace" && i + 1 < argc) {
            spansPath = argv[++i];
        } else if (arg == "--crosscheck") {
            crosscheck = true;
        } else {
            usage();
        }
    }
    if (!haveSeed)
        usage();

    SpanRecorder recorder;
    SpanRecorder *rec = spansPath.empty() ? nullptr : &recorder;
    RunOutcome out;
    if (workload == "rack_scaleout")
        runRackScaleout(seed, rec, out);
    else if (workload == "chain_offload")
        runChainOffload(seed, rec, out);
    else if (workload == "fig4_capacity")
        runFig4Capacity(seed, rec, out);
    else
        usage();

    bool ok = out.completed > 0;
    std::printf("{\"workload\": \"%s\", \"seed\": %" PRIu64
                ", \"digest\": \"%s\", \"setup_s\": %.9f, "
                "\"wall_s\": %.9f, \"run_s\": %.9f, "
                "\"sim_completed\": %" PRIu64 ", "
                "\"sim_req_per_s\": %.6f, \"sim_p99_us\": %.3f, "
                "\"peak_rss_mb\": %.6f",
                workload.c_str(), seed, out.digest.hex().c_str(),
                out.setupS, out.wallS, out.runS, out.completed,
                static_cast<double>(out.completed) / out.runS,
                sim::ticksToUs(out.latency.p99()), peakRssMb());

    if (rec) {
        // Self times of the workload's span tree partition its wall.
        const std::int64_t selfSum = recorder.treeSelfNs(out.workloadSpan);
        const std::int64_t wallNs =
            recorder.spans()[out.workloadSpan].durNs();
        ok = ok && selfSum == wallNs;
        const auto layers = layerMetrics(out, seed, rec);

        bool crossOk = true;
        if (crosscheck && !out.cells.empty()) {
            Scope s(rec, "crosscheck.runExperiment");
            ExperimentOptions opts;
            opts.seed = seed;
            for (const RunResult &mine : out.cells) {
                const RunResult ref =
                    runExperiment(mine.workloadId, mine.platform, opts);
                if (!sameRunResult(mine, ref)) {
                    std::fprintf(stderr,
                                 "simbench: %s@%s differs from "
                                 "runExperiment\n",
                                 mine.workloadId.c_str(),
                                 hw::platformName(mine.platform));
                    crossOk = false;
                }
            }
        }
        ok = ok && crossOk;
        recorder.write(spansPath);

        std::printf(", \"span_self_sum_s\": %.9f, \"crosscheck\": %s, "
                    "\"layers\": {",
                    static_cast<double>(selfSum) * 1e-9,
                    crosscheck && !out.cells.empty()
                        ? (crossOk ? "\"pass\"" : "\"fail\"")
                        : "\"skipped\"");
        bool first = true;
        for (const auto &[name, v] : layers) {
            std::printf("%s\"%s\": %.9g", first ? "" : ", ", name.c_str(),
                        v);
            first = false;
        }
        std::printf("}");
    }
    std::printf(", \"ok\": %s}\n", ok ? "true" : "false");
    return 0;
}
