/**
 * @file
 * The repo benchmark (see perfbench/README.md): one workload per
 * invocation, driven through the public API of every layer on library
 * defaults (SystemConfig::backend as shipped), with a fixed host thread
 * count.
 *
 *   perfbench --workload W --seed N --seconds S --trace 0|1
 *             [--out-dir DIR] [--git-sha SHA] [--source-digest HEX]
 *   perfbench --calibrate
 *
 * Inputs (streams, goldens, arrival schedules) are generated from the
 * seed before any clock starts. One untimed warm-up set-up fills the
 * caches a set-up uses (the jit artifact cache lives under --out-dir).
 * Then the workload runs a fixed number of passes derived from S (see
 * kMinPasses), one at a time, each in a child process forked from that
 * warmed-up state (runPass), so every pass does the same work; every
 * pass is checked against Application::golden and must reproduce the
 * first pass's simulated results exactly.
 *
 * --trace 0 prints the end-to-end metrics. Host times are per-step
 * minima over the passes (perfbench::fastestSteps: every pass repeats
 * the same rounds, and a shared host's interference only adds time);
 * setup_s is the fastest of the passes' own set-ups.
 * --trace 1 alternates untraced and traced passes and reports per-layer
 * metrics: self times of the spans around the public calls of a pass
 * (kept in memory, written once at the end as a Chrome trace), which add
 * up to the traced pass; the simulated counters; standalone probes of
 * the set-up layers; and the tracing overhead.
 *
 * The last stdout line is one JSON object: correct, attempted, failed,
 * metrics. Exit status: 0 ok, 1 wrong output or nondeterminism, 2 bad
 * usage or configuration or a failed pass process, 3 sanitizer build.
 */

#include <malloc.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "apps/registry.h"
#include "cluster/pipeline.h"
#include "compile/compiler.h"
#include "rtl/jit.h"
#include "rtl/opt.h"
#include "rtl/tape.h"
#include "serve/load_gen.h"
#include "serve/service.h"
#include "sim/simulator.h"
#include "system/fleet_system.h"
#include "system/pu_backend.h"
#include "util/rng.h"

#include "harness.h"

namespace {

using namespace fleet;
using perfbench::Digest;
using perfbench::median;
using perfbench::nowSeconds;
using perfbench::OpTally;
using perfbench::Percentile;
using perfbench::ScopedSpan;
using perfbench::Span;
using perfbench::SpanRecorder;

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitizerMacro = true;
#else
constexpr bool kSanitizerMacro = false;
#endif

/** Fig. 7 Regex throughput (GB/s) the membound workload tracks. */
constexpr double kPaperRegexGbps = 27.24;
/** Per-channel bus width in bytes per cycle (512-bit DDR4 beats). */
constexpr double kChannelBytesPerCycle = 64.0;
/** Seed kept out of tuning; a performance claim must also hold on it. */
constexpr uint64_t kHeldOutSeed = 7919;
/**
 * Passes a run always makes, whatever --seconds says. A run makes
 * floor(seconds / Workload::nominalPassSeconds()) passes: a count fixed
 * by --seconds rather than by the host clock, so how many passes the
 * fastest-step estimate sees does not follow host noise.
 */
constexpr size_t kMinPasses = 2;
/** Tail samples a reported job percentile needs beyond its rank. */
constexpr size_t kMinBeyond = 10;
bool
startsWith(const std::string &s, const char *prefix)
{
    return s.rfind(prefix, 0) == 0;
}

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Ordered name -> (value, unit) list, printed as the metrics object. */
class MetricList
{
  public:
    void add(const std::string &name, double value, const std::string &unit)
    {
        list_.push_back({name, value, unit});
    }
    /** Update a metric already added; other names are ignored. */
    void set(const std::string &name, double value)
    {
        for (Metric &m : list_)
            if (m.name == name)
                m.value = value;
    }
    double get(const std::string &name) const
    {
        for (const Metric &m : list_)
            if (m.name == name)
                return m.value;
        return 0.0;
    }
    const std::vector<Metric> &list() const { return list_; }

  private:
    std::vector<Metric> list_;
};

/** Every per-layer metric with its unit, in report order. A workload
 * that does not exercise a layer reports 0 for it. */
const std::vector<std::pair<const char *, const char *>> kLayerMetrics = {
    {"lang.build_s", "s"},
    {"compile.compile_s", "s"},
    {"compile.circuit_nodes", "count"},
    {"rtl.opt_s", "s"},
    {"rtl.tape_s", "s"},
    {"rtl.tape_ops", "count"},
    {"rtl.jit_cold_compile_s", "s"},
    {"rtl.jit_cache_hit", "count"},
    {"sim.functional_s", "s"},
    {"sim.virtual_cycles", "count"},
    {"system.construct_s", "s"},
    {"system.run_s", "s"},
    {"system.output_s", "s"},
    {"system.pu_mcycles_per_s", "Mcycles/s"},
    {"system.sim_cycles", "cycles"},
    {"memctl.input_starved_cycles", "cycles"},
    {"memctl.output_blocked_cycles", "cycles"},
    {"memctl.read_bursts", "count"},
    {"memctl.write_bursts", "count"},
    {"dram.bus_util", "frac"},
    {"dram.read_queue_depth", "entries"},
    {"dram.beats_read", "count"},
    {"dram.beats_written", "count"},
    {"dram.roofline_frac", "frac"},
    {"runtime.queue_wait_cycles_mean", "cycles"},
    {"runtime.service_cycles_mean", "cycles"},
    {"runtime.slot_occupancy", "frac"},
    {"runtime.rounds", "count"},
    {"serve.submit_s", "s"},
    {"serve.pump_s", "s"},
    {"serve.shutdown_s", "s"},
    {"serve.rejected", "count"},
    {"serve.release_lag_cycles", "cycles"},
    {"cluster.step_s", "s"},
    {"cluster.rounds", "count"},
    {"cluster.finish_s", "s"},
    {"cluster.link_busy_cycles", "cycles"},
    {"cluster.link_offers_refused", "count"},
    {"cluster.link_bytes", "bytes"},
    {"model.gbps_vs_paper", "frac"},
    {"trace.overhead_frac", "frac"},
};

/** Simulated results of one pass: identical on every pass of a run. */
struct SimResult
{
    Digest digest;
    uint64_t inputBytes = 0;
    uint64_t simCycles = 0;
    /** Per-operation simulated latency (cycles from scheduled arrival;
     * one-shot: from cycle 0 to the PU's completion). */
    std::vector<uint64_t> latencies;
    /** Slot-cycles simulated (PU-cycles), for system.pu_mcycles_per_s. */
    double puCycles = 0.0;
    /** Simulated per-layer counters (memctl, dram, runtime, cluster),
     * keyed by per-layer metric name. */
    std::map<std::string, double> counters;
    /** Slots per backend actually run (FleetSystem::slotBackend). */
    std::map<std::string, int> slotBackends;
};

/** One measured pass. */
struct Pass
{
    double setupS = 0.0; ///< program() + construction.
    /** Denominator of host_MBps and jobs_per_s: set-up plus run plus
     * output for one-shot; first release to shutdown otherwise. */
    double hostS = 0.0;
    double totalS = 0.0; ///< Whole pass, verification excluded.
    /** hostS split into the steps every pass of the workload repeats:
     * set-up, then run and output, for one-shot; each round (with the
     * submits before it), then shutdown, for jobs. See
     * perfbench::fastestSteps. */
    std::vector<double> steps;
    OpTally tally;
    SimResult sim;
};

/**
 * Byte encoding of a Pass, which hands it from the child process that ran
 * it to the parent (see runPass). Both sides are the same binary, so
 * trivially copyable values go as their bytes; a Span's layer name is a
 * string literal, at the same address in both.
 */
class Wire
{
  public:
    Wire() = default;
    explicit Wire(std::string bytes) : buf_(std::move(bytes)) {}

    template <typename T> void put(const T &v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        buf_.append(reinterpret_cast<const char *>(&v), sizeof(T));
    }
    template <typename T> void put(const std::vector<T> &v)
    {
        put(v.size());
        for (const T &x : v)
            put(x);
    }
    void put(const std::string &v)
    {
        put(v.size());
        buf_ += v;
    }
    template <typename V> void put(const std::map<std::string, V> &m)
    {
        put(m.size());
        for (const auto &[k, v] : m) {
            put(k);
            put(v);
        }
    }

    /** Read back in the order written; false once the bytes run out. */
    template <typename T> bool get(T &v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        if (buf_.size() - pos_ < sizeof(T))
            return false;
        std::memcpy(&v, buf_.data() + pos_, sizeof(T));
        pos_ += sizeof(T);
        return true;
    }
    template <typename T> bool get(std::vector<T> &v)
    {
        size_t n = 0;
        if (!get(n) || n > buf_.size())
            return false;
        v.resize(n);
        for (T &x : v)
            if (!get(x))
                return false;
        return true;
    }
    bool get(std::string &v)
    {
        size_t n = 0;
        if (!get(n) || buf_.size() - pos_ < n)
            return false;
        v.assign(buf_, pos_, n);
        pos_ += n;
        return true;
    }
    template <typename V> bool get(std::map<std::string, V> &m)
    {
        size_t n = 0;
        if (!get(n))
            return false;
        for (size_t i = 0; i < n; ++i) {
            std::string k;
            if (!get(k) || !get(m[k]))
                return false;
        }
        return true;
    }
    const std::string &bytes() const { return buf_; }

  private:
    std::string buf_;
    size_t pos_ = 0;
};

void
encode(Wire &w, const Pass &p, const std::vector<Span> &spans)
{
    w.put(p.setupS);
    w.put(p.hostS);
    w.put(p.totalS);
    w.put(p.steps);
    w.put(p.tally);
    w.put(p.sim.digest);
    w.put(p.sim.inputBytes);
    w.put(p.sim.simCycles);
    w.put(p.sim.latencies);
    w.put(p.sim.puCycles);
    w.put(p.sim.counters);
    w.put(p.sim.slotBackends);
    w.put(spans);
}

bool
decode(Wire &w, Pass &p, std::vector<Span> &spans)
{
    return w.get(p.setupS) && w.get(p.hostS) && w.get(p.totalS) &&
           w.get(p.steps) && w.get(p.tally) && w.get(p.sim.digest) &&
           w.get(p.sim.inputBytes) && w.get(p.sim.simCycles) &&
           w.get(p.sim.latencies) && w.get(p.sim.puCycles) &&
           w.get(p.sim.counters) && w.get(p.sim.slotBackends) &&
           w.get(spans);
}

void
addChannelCounters(const system::FleetSystem &sys, SimResult &sim)
{
    system::SystemStats st = sys.stats();
    auto &c = sim.counters;
    for (int ch = 0; ch < sys.numShards(); ++ch) {
        const system::ChannelStats &cs = st.channels[ch];
        const system::ChannelShard &shard = sys.shard(ch);
        c["memctl.input_starved_cycles"] += double(cs.inputStarvedCycles);
        c["memctl.output_blocked_cycles"] += double(cs.outputBlockedCycles);
        c["memctl.read_bursts"] += double(shard.inputController().arIssued());
        c["memctl.write_bursts"] +=
            double(shard.outputController().awIssued());
        c["dram.beats_read"] += double(cs.beatsDelivered);
        c["dram.beats_written"] += double(cs.beatsWritten);
        // Integrals, so several devices combine; finishDram() turns
        // them into dram.bus_util and dram.read_queue_depth.
        c["dram.read_queue_occupancy"] += double(cs.readQueueOccupancySum);
        c["dram.channel_cycles"] += double(cs.cycles);
        sim.digest.add(cs.cycles);
        sim.digest.add(cs.inputStarvedCycles);
        sim.digest.add(cs.outputBlockedCycles);
        sim.digest.add(cs.beatsDelivered);
        sim.digest.add(cs.beatsWritten);
    }
    for (int p = 0; p < sys.numPus(); ++p)
        ++sim.slotBackends[system::puBackendName(sys.slotBackend(p))];
}

void
finishDram(SimResult &sim, int channels)
{
    auto &c = sim.counters;
    double ch_cycles = c["dram.channel_cycles"];
    double beats = c["dram.beats_read"] + c["dram.beats_written"];
    c["dram.bus_util"] = ch_cycles ? beats / ch_cycles : 0;
    c["dram.read_queue_depth"] =
        ch_cycles ? c["dram.read_queue_occupancy"] / ch_cycles : 0;
    double roof = double(sim.simCycles) * kChannelBytesPerCycle * channels;
    c["dram.roofline_frac"] = roof ? double(sim.inputBytes) / roof : 0;
}

/** runtime.* counters from a job workload's per-job cycle sums. */
void
setRuntimeCounters(SimResult &sim, uint64_t served, uint64_t wait,
                   uint64_t service, int slots, uint64_t rounds)
{
    auto &c = sim.counters;
    c["runtime.queue_wait_cycles_mean"] =
        served ? double(wait) / double(served) : 0;
    c["runtime.service_cycles_mean"] =
        served ? double(service) / double(served) : 0;
    c["runtime.slot_occupancy"] =
        sim.simCycles ? double(service) / (double(sim.simCycles) * slots)
                      : 0;
    c["runtime.rounds"] = double(rounds);
}

/**
 * Generator seed for one input family of a workload. Rng is SplitMix64,
 * whose state only advances by a constant, so seeding it with plain
 * arithmetic on the run seed would give seeds n and n + 1 the same
 * sequence shifted by one draw; hashing keeps runs independent.
 */
uint64_t
seedFor(uint64_t seed, uint64_t family)
{
    Rng mix(seed ^ (family * 0xd1b54a32d192ed03ULL));
    mix.next();
    return mix.next();
}

/** Count one operation; say on stderr why it failed, if it did. */
void
recordOp(OpTally &tally, size_t op, bool refused, const Status &status,
         bool ok, const BitBuffer &out, const BitBuffer &golden)
{
    const bool match = out == golden;
    tally.record(refused, !ok, match);
    if (refused || !ok || !match)
        std::fprintf(stderr,
                     "operation %zu failed: %s, %" PRIu64
                     " output bits, golden %" PRIu64 "\n",
                     op, status.toString().c_str(), out.sizeBits(),
                     golden.sizeBits());
}

void
addBits(Digest &d, const BitBuffer &b)
{
    d.add(b.sizeBits());
    for (uint8_t byte : b.toBytes())
        d.add(byte);
}

/** Run fn(i) for i in [0, n) on up to `threads` host threads. */
void
parallelFor(int threads, size_t n, const std::function<void(size_t)> &fn)
{
    std::vector<std::thread> pool;
    std::atomic<size_t> next{0};
    for (int t = 0; t < std::max(1, threads); ++t)
        pool.emplace_back([&] {
            for (size_t i = next++; i < n; i = next++)
                fn(i);
        });
    for (auto &th : pool)
        th.join();
}

class Workload
{
  public:
    virtual ~Workload() = default;
    virtual std::string describe() const = 0;
    /** Build every input and golden from the seed (untimed). */
    virtual void prepare(uint64_t seed) = 0;
    /** One untimed set-up (program() + construction) before the passes,
     * which fills the caches a set-up uses. */
    virtual void warmUp() = 0;
    /** Whether the workload exercises the layer a per-layer metric
     * measures; the metric reads 0 where it does not. */
    virtual bool exercises(const std::string &metric) const = 0;
    /** One measured pass; `rec` is null when untraced. */
    virtual Pass pass(SpanRecorder *rec, uint64_t index) = 0;
    /** The programs the workload runs, for the set-up probes. */
    virtual std::vector<lang::Program> programs() const = 0;
    /** Streams each program sees, for the functional-simulator probe. */
    virtual std::vector<std::vector<const BitBuffer *>>
    probeStreams() const = 0;
    /** Lane count of one channel's batch, for the jit probes. */
    virtual int jitLanes() const = 0;
    /** Host seconds one pass takes on the reference host (4 cores),
     * which turns --seconds into a pass count. */
    virtual double nominalPassSeconds() const = 0;
    /** SystemConfig::numThreads of every system the workload builds. */
    virtual int threads() const = 0;
    /** Whether the operations are jobs re-armed onto a slot pool, rather
     * than one stream per PU: then p99 must have kMinBeyond samples past
     * it, and the heap keeps freed memory (see benchMain). */
    virtual bool jobs() const { return true; }
};

/** Library defaults, backend included, with a fixed host thread count
 * (SystemConfig::numThreads) so host times compare across machines. */
system::SystemConfig
baseConfig(int threads)
{
    system::SystemConfig config;
    config.numThreads = threads;
    return config;
}

/**
 * Every pass times Application::program() but constructs from the one
 * program built in prepare() and first evaluated in the warm-up, as a
 * service that keeps its program would.
 */

/**
 * One FleetSystem::run() over one stream per PU: program() and the
 * constructor are set-up; run() and output() are the simulation.
 */
class OneShot : public Workload
{
  public:
    OneShot(std::string app, int pus, uint64_t bytes, double nominal_pass)
        : app_(apps::makeApplication(app)), pus_(pus), bytes_(bytes),
          nominalPass_(nominal_pass)
    {
    }

    std::string describe() const override
    {
        return app_->name() + ", " + std::to_string(pus_) + " PUs x " +
               std::to_string(bytes_ / 1024) + " KiB, one run()";
    }

    void prepare(uint64_t seed) override
    {
        program_ = app_->program();
        Rng rng(seedFor(seed, 1));
        for (int p = 0; p < pus_; ++p) {
            streams_.push_back(app_->generateStream(rng, bytes_));
            goldens_.push_back(app_->golden(streams_.back()));
        }
    }

    void warmUp() override
    {
        lang::Program fresh = app_->program();
        system::FleetSystem sys(program_, baseConfig(kThreads),
                                std::vector<BitBuffer>(streams_));
    }

    Pass pass(SpanRecorder *rec, uint64_t index) override
    {
        Pass pass;
        std::vector<BitBuffer> streams = streams_;
        std::vector<BitBuffer> outputs(pus_);
        std::unique_ptr<system::FleetSystem> sys;
        lang::Program fresh;
        double t0, t1, t2;
        {
            ScopedSpan root(rec, "iteration", index);
            t0 = nowSeconds();
            {
                ScopedSpan s(rec, "lang.build", index);
                fresh = app_->program();
            }
            {
                ScopedSpan s(rec, "system.construct", index);
                sys = std::make_unique<system::FleetSystem>(
                    program_, baseConfig(kThreads), std::move(streams));
            }
            t1 = nowSeconds();
            {
                ScopedSpan s(rec, "system.run", index);
                sys->run();
            }
            {
                ScopedSpan s(rec, "system.output", index);
                for (int p = 0; p < pus_; ++p)
                    outputs[p] = sys->output(p);
            }
            t2 = nowSeconds();
        }
        pass.setupS = t1 - t0;
        pass.hostS = t2 - t0;
        pass.steps = {t1 - t0, t2 - t1};
        pass.totalS = nowSeconds() - t0;

        ScopedSpan verify(rec, "verify", index);
        const system::RunReport &report = sys->report();
        SimResult &sim = pass.sim;
        system::SystemStats st = sys->stats();
        sim.inputBytes = st.inputBytes;
        sim.simCycles = st.cycles;
        sim.digest.add(st.cycles);
        for (int p = 0; p < pus_; ++p) {
            const system::PuOutcome &o = report.pus[p];
            recordOp(pass.tally, p, false, o.status,
                     o.status.code == StatusCode::Ok, outputs[p],
                     goldens_[p]);
            sim.latencies.push_back(o.atCycle);
            sim.digest.add(uint64_t(o.status.code));
            sim.digest.add(o.atCycle);
            addBits(sim.digest, outputs[p]);
        }
        for (int c = 0; c < sys->numShards(); ++c)
            sim.puCycles += double(st.channels[c].cycles) *
                            double(st.channels[c].numPus);
        addChannelCounters(*sys, sim);
        finishDram(sim, sys->numShards());
        if (app_->name() == "Regex")
            sim.counters["model.gbps_vs_paper"] =
                st.inputGBps() / kPaperRegexGbps;
        return pass;
    }

    std::vector<lang::Program> programs() const override
    {
        return {program_};
    }
    std::vector<std::vector<const BitBuffer *>>
    probeStreams() const override
    {
        std::vector<const BitBuffer *> all;
        for (const auto &s : streams_)
            all.push_back(&s);
        return {all};
    }
    int jitLanes() const override
    {
        const int channels = baseConfig(kThreads).numChannels;
        return (pus_ + channels - 1) / channels;
    }
    /** One thread per channel: FastPu's functional pre-run, which
     * dominates set-up, runs on the same pool. */
    int threads() const override { return kThreads; }
    double nominalPassSeconds() const override { return nominalPass_; }
    static constexpr int kThreads = 4;
    bool jobs() const override { return false; }
    bool exercises(const std::string &metric) const override
    {
        if (startsWith(metric, "model."))
            return app_->name() == "Regex";
        return !startsWith(metric, "runtime.") &&
               !startsWith(metric, "serve.") &&
               !startsWith(metric, "cluster.");
    }

  private:
    std::unique_ptr<apps::Application> app_;
    lang::Program program_;
    int pus_;
    uint64_t bytes_;
    double nominalPass_;
    std::vector<BitBuffer> streams_;
    std::vector<BitBuffer> goldens_;
};

/** Shape of the open-loop job workloads. */
struct JobShape
{
    uint64_t jobs = 0;
    uint64_t minBytes = 0;
    uint64_t maxBytes = 0;
    /** Mean interarrival gap (cycles), calibrated once by
     * `perfbench --calibrate` for the target load and frozen here so
     * a change in service time cannot move the offered load. */
    double meanGapCycles = 0.0;
};

/** A job stream must fit its slot's input region, or arming fails. */
void
requireFits(const BitBuffer &stream, uint64_t region_bytes)
{
    if ((stream.sizeBits() + 7) / 8 > region_bytes)
        throw std::runtime_error(
            "a generated job stream (" +
            std::to_string((stream.sizeBits() + 7) / 8) +
            " bytes) exceeds the " + std::to_string(region_bytes) +
            "-byte input region");
}

/** Seeded Poisson arrivals (serve/load_gen.h). */
std::vector<serve::Arrival>
poissonSchedule(const JobShape &shape, uint64_t seed)
{
    serve::LoadSpec spec;
    spec.process = serve::ArrivalProcess::Poisson;
    spec.jobs = shape.jobs;
    spec.meanInterarrivalCycles = shape.meanGapCycles;
    spec.minJobBytes = shape.minBytes;
    spec.maxJobBytes = shape.maxBytes;
    spec.seed = seedFor(seed, 2);
    return serve::makeArrivals(spec);
}

/**
 * Paced arrivals: job j arrives at a uniform point of its own gap-long
 * slot, so the rate is steady and the tail comes from job sizes and the
 * link rather than from arrival bursts, which would make p99 swing from
 * seed to seed at this job count.
 */
std::vector<serve::Arrival>
pacedSchedule(const JobShape &shape, uint64_t seed)
{
    Rng rng(seedFor(seed, 5));
    std::vector<serve::Arrival> out(shape.jobs);
    for (uint64_t j = 0; j < shape.jobs; ++j) {
        double at = (double(j) + rng.nextDouble()) * shape.meanGapCycles;
        out[j].cycle = uint64_t(at);
        out[j].streamBytes =
            rng.nextInRange(shape.minBytes, shape.maxBytes);
    }
    return out;
}

/** Rounds an open loop drove and how late it released arrivals. */
struct OpenLoop
{
    uint64_t rounds = 0;
    uint64_t lagCycles = 0; ///< Sum over jobs of release - scheduled.
    std::vector<double> roundEnds; ///< Host time each round ended.

    /** Host time from `start` to `end` in steps: each round, with the
     * submits before it, then whatever follows the last round. */
    std::vector<double> steps(double start, double end) const
    {
        std::vector<double> out;
        for (double t : roundEnds) {
            out.push_back(t - start);
            start = t;
        }
        out.push_back(end - start);
        return out;
    }
};

/**
 * Open-loop driver of the job workloads: before each round, submit(j, at)
 * every arrival the clock now() has passed (`at` is its scheduled cycle on
 * that clock), then step(round). When a round finds no work, the offset
 * between schedule and clock jumps to the next arrival, so idle gaps cost
 * no rounds. Ends when every arrival is released and a round is idle.
 */
template <typename Now, typename Submit, typename Step>
OpenLoop
driveOpenLoop(const std::vector<serve::Arrival> &arrivals, Now now,
              Submit submit, Step step)
{
    OpenLoop loop;
    size_t next = 0;
    uint64_t offset = arrivals.front().cycle;
    for (;;) {
        const uint64_t vnow = now() + offset;
        while (next < arrivals.size() && arrivals[next].cycle <= vnow) {
            loop.lagCycles += vnow - arrivals[next].cycle;
            submit(next, arrivals[next].cycle - offset);
            ++next;
        }
        const bool work = step(loop.rounds);
        ++loop.rounds;
        loop.roundEnds.push_back(nowSeconds());
        if (!work) {
            if (next >= arrivals.size())
                return loop;
            if (arrivals[next].cycle > vnow)
                offset += arrivals[next].cycle - vnow;
        }
    }
}

/**
 * Paced FleetService open loop: seeded Poisson arrivals released on the
 * session clock under the Reject policy. Latency counts from each job's
 * scheduled arrival.
 */
class Serve : public Workload
{
  public:
    static constexpr int kChannels = 4;
    static constexpr int kSlots = 16;
    /** One host thread: a round steps each shard for a few hundred
     * cycles, and a worker pool per round would spend more host time
     * starting threads, and waiting for the slowest, than stepping. */
    static constexpr int kThreads = 1;
    /** Finer than the default 2048-cycle rounds: latencies are quantized
     * to rounds, which would make p99 jump between seeds. */
    static constexpr uint64_t kEpochCycles = 512;
    static constexpr uint64_t kRegionBytes = 4096;
    static constexpr size_t kQueueBound = 512;
    /** Offered load rho ~ 0.8 of pool capacity (calibrated). */
    static constexpr JobShape kShape = {2000, 128, 1024, 125.4};

    std::string describe() const override
    {
        return "JsonParsing jobs on FleetService, " +
               std::to_string(kSlots) + " slots, Poisson open loop, " +
               std::to_string(shape_.jobs) + " jobs";
    }

    explicit Serve(JobShape shape = kShape)
        : app_(apps::makeApplication("JsonParsing")), shape_(shape)
    {
    }

    static serve::ServiceConfig config()
    {
        serve::ServiceConfig config;
        config.session.system = baseConfig(kThreads);
        config.session.system.numChannels = kChannels;
        config.session.system.inputRegionBytes = kRegionBytes;
        config.session.numSlots = kSlots;
        config.session.epochCycles = kEpochCycles;
        config.maxQueueDepth = kQueueBound;
        config.policy = serve::AdmissionPolicy::Reject;
        config.backgroundThread = false;
        return config;
    }

    void prepare(uint64_t seed) override
    {
        program_ = app_->program();
        arrivals_ = poissonSchedule(shape_, seed);
        Rng rng(seedFor(seed, 3));
        for (const auto &a : arrivals_) {
            streams_.push_back(app_->generateStream(rng, a.streamBytes));
            goldens_.push_back(app_->golden(streams_.back()));
            requireFits(streams_.back(), kRegionBytes);
        }
    }

    void warmUp() override
    {
        lang::Program fresh = app_->program();
        serve::FleetService(program_, config()).shutdown();
    }

    Pass pass(SpanRecorder *rec, uint64_t index) override
    {
        Pass pass;
        std::vector<BitBuffer> streams = streams_;
        std::vector<serve::JobTicket> tickets;
        tickets.reserve(streams.size());
        std::vector<BitBuffer> outputs(streams.size());
        std::unique_ptr<serve::FleetService> service;
        lang::Program fresh;
        OpenLoop loop;
        double t0, t1, t2;
        {
            ScopedSpan root(rec, "iteration", index);
            t0 = nowSeconds();
            {
                ScopedSpan s(rec, "lang.build", index);
                fresh = app_->program();
            }
            {
                ScopedSpan s(rec, "system.construct", index);
                service = std::make_unique<serve::FleetService>(program_,
                                                                config());
            }
            t1 = nowSeconds();
            loop = driveOpenLoop(
                arrivals_, [&] { return service->stats().simCycles; },
                [&](size_t j, uint64_t at) {
                    ScopedSpan s(rec, "serve.submit", j);
                    tickets.push_back(
                        service->submitAt(std::move(streams[j]), at));
                },
                [&](uint64_t round) {
                    ScopedSpan s(rec, "serve.pump", round);
                    return service->pump();
                });
            {
                ScopedSpan s(rec, "serve.shutdown", index);
                service->shutdown();
            }
            t2 = nowSeconds();
            ScopedSpan s(rec, "system.output", index);
            for (size_t j = 0; j < tickets.size(); ++j)
                outputs[j] = tickets[j].report().output;
        }
        pass.setupS = t1 - t0;
        pass.hostS = t2 - t1;
        pass.steps = loop.steps(t1, t2);
        pass.totalS = nowSeconds() - t0;

        ScopedSpan verify(rec, "verify", index);
        SimResult &sim = pass.sim;
        uint64_t rejected = 0, wait = 0, service_cycles = 0, served = 0;
        for (size_t j = 0; j < tickets.size(); ++j) {
            const runtime::JobReport &r = tickets[j].report();
            bool refused = r.status.code == StatusCode::ResourceExhausted;
            rejected += refused;
            recordOp(pass.tally, j, refused, r.status, r.ok(), outputs[j],
                     goldens_[j]);
            sim.inputBytes += streams_[j].sizeBits() / 8;
            sim.digest.add(uint64_t(r.status.code));
            sim.digest.add(r.enqueueCycle);
            sim.digest.add(r.admittedCycle);
            sim.digest.add(r.completedCycle);
            sim.digest.add(r.armCycle);
            sim.digest.add(r.retireCycle);
            addBits(sim.digest, outputs[j]);
            if (!r.ok())
                continue;
            ++served;
            sim.latencies.push_back(r.totalCycles());
            wait += r.queueWaitCycles();
            service_cycles += r.serviceCycles();
        }
        const system::FleetSystem &sys = service->session().system();
        sim.simCycles = service->stats().simCycles;
        sim.digest.add(sim.simCycles);
        sim.puCycles = double(sim.simCycles) * kSlots;
        addChannelCounters(sys, sim);
        finishDram(sim, sys.numShards());
        setRuntimeCounters(sim, served, wait, service_cycles, kSlots,
                           loop.rounds);
        sim.counters["serve.rejected"] = double(rejected);
        sim.counters["serve.release_lag_cycles"] =
            tickets.empty() ? 0
                            : double(loop.lagCycles) / double(tickets.size());
        return pass;
    }

    std::vector<lang::Program> programs() const override
    {
        return {program_};
    }
    std::vector<std::vector<const BitBuffer *>>
    probeStreams() const override
    {
        std::vector<const BitBuffer *> all;
        for (const auto &s : streams_)
            all.push_back(&s);
        return {all};
    }
    int jitLanes() const override { return kSlots / kChannels; }
    int threads() const override { return kThreads; }
    double nominalPassSeconds() const override { return 3.7; }
    bool exercises(const std::string &metric) const override
    {
        return !startsWith(metric, "cluster.") &&
               !startsWith(metric, "model.");
    }

  private:
    std::unique_ptr<apps::Application> app_;
    lang::Program program_;
    JobShape shape_;
    std::vector<serve::Arrival> arrivals_;
    std::vector<BitBuffer> streams_;
    std::vector<BitBuffer> goldens_;
};

/**
 * cluster::Pipeline: JsonParsing on device 0 feeds Regex on device 1
 * over a modelled Link; jobs released open loop on the pipeline clock.
 */
class PipelineWorkload : public Workload
{
  public:
    static constexpr int kChannels = 2;
    static constexpr int kSlotsPerStage = 8;
    /** Rounds of 512 cycles rather than the default 2048: latencies are
     * quantized to rounds, and with coarse rounds p99 jumps a whole
     * round between seeds as the tail crosses a round boundary. */
    static constexpr uint64_t kEpochCycles = 512;
    /** One host thread, as for serve_poisson. */
    static constexpr int kThreads = 1;
    static constexpr uint64_t kRegionBytes = 4096;
    /** Offered load rho ~ 0.5 of the JsonParsing stage (calibrated). */
    static constexpr JobShape kShape = {1500, 128, 1024, 396.0};

    explicit PipelineWorkload(JobShape shape = kShape)
        : json_(apps::makeApplication("JsonParsing")),
          regex_(apps::makeApplication("Regex")), shape_(shape)
    {
    }

    std::string describe() const override
    {
        return "JsonParsing (device 0) -> Regex (device 1) over a Link, " +
               std::to_string(shape_.jobs) + " jobs, paced open loop";
    }

    static cluster::PipelineConfig config()
    {
        cluster::PipelineConfig config;
        config.system = baseConfig(kThreads);
        config.system.numChannels = kChannels;
        config.system.inputRegionBytes = kRegionBytes;
        config.epochCycles = kEpochCycles;
        return config;
    }

    std::vector<cluster::StageSpec>
    stages(const lang::Program &json, const lang::Program &regex) const
    {
        return {{json, 0, kSlotsPerStage}, {regex, 1, kSlotsPerStage}};
    }

    void prepare(uint64_t seed) override
    {
        jsonProgram_ = json_->program();
        regexProgram_ = regex_->program();
        arrivals_ = pacedSchedule(shape_, seed);
        Rng rng(seedFor(seed, 4));
        for (const auto &a : arrivals_) {
            streams_.push_back(json_->generateStream(rng, a.streamBytes));
            requireFits(streams_.back(), kRegionBytes);
            mids_.push_back(json_->golden(streams_.back()));
            goldens_.push_back(regex_->golden(mids_.back()));
        }
    }

    void warmUp() override
    {
        auto fresh = stages(json_->program(), regex_->program());
        cluster::Pipeline p(stages(jsonProgram_, regexProgram_), config());
    }

    Pass pass(SpanRecorder *rec, uint64_t index) override
    {
        Pass pass;
        std::vector<BitBuffer> streams = streams_;
        const size_t n = streams.size();
        std::vector<uint64_t> scheduled(n, 0);
        std::vector<BitBuffer> outputs(n);
        std::unique_ptr<cluster::Pipeline> pipe;
        std::vector<cluster::StageSpec> fresh;
        OpenLoop loop;
        double t0, t1, t2;
        {
            ScopedSpan root(rec, "iteration", index);
            t0 = nowSeconds();
            {
                ScopedSpan s(rec, "lang.build", index);
                fresh = stages(json_->program(), regex_->program());
            }
            {
                ScopedSpan s(rec, "system.construct", index);
                pipe = std::make_unique<cluster::Pipeline>(
                    stages(jsonProgram_, regexProgram_), config());
            }
            t1 = nowSeconds();
            loop = driveOpenLoop(
                arrivals_, [&] { return pipe->cycles(); },
                [&](size_t j, uint64_t at) {
                    scheduled[j] = at;
                    pipe->submit(std::move(streams[j]));
                },
                [&](uint64_t round) {
                    ScopedSpan s(rec, "cluster.step", round);
                    return pipe->step();
                });
            {
                ScopedSpan s(rec, "cluster.finish", index);
                pipe->finish();
            }
            t2 = nowSeconds();
            ScopedSpan s(rec, "system.output", index);
            for (size_t j = 0; j < n; ++j)
                outputs[j] = pipe->report(j).output;
        }
        pass.setupS = t1 - t0;
        pass.hostS = t2 - t1;
        pass.steps = loop.steps(t1, t2);
        pass.totalS = nowSeconds() - t0;

        ScopedSpan verify(rec, "verify", index);
        SimResult &sim = pass.sim;
        uint64_t wait = 0, service_cycles = 0, served = 0;
        for (size_t j = 0; j < n; ++j) {
            const cluster::PipelineJobReport &r = pipe->report(j);
            recordOp(pass.tally, j, false, r.status, r.ok(), outputs[j],
                     goldens_[j]);
            sim.inputBytes += streams_[j].sizeBits() / 8;
            sim.digest.add(uint64_t(r.status.code));
            sim.digest.add(r.submitCycle);
            sim.digest.add(r.doneCycle);
            for (size_t k = 0; k < r.stageArmCycle.size(); ++k) {
                sim.digest.add(r.stageArmCycle[k]);
                sim.digest.add(r.stageRetireCycle[k]);
            }
            addBits(sim.digest, outputs[j]);
            if (!r.ok())
                continue;
            ++served;
            sim.latencies.push_back(r.doneCycle - scheduled[j]);
            wait += r.stageArmCycle[0] > scheduled[j]
                        ? r.stageArmCycle[0] - scheduled[j]
                        : 0;
            for (size_t k = 0; k < r.stageArmCycle.size(); ++k)
                service_cycles +=
                    r.stageRetireCycle[k] - r.stageArmCycle[k];
        }
        sim.simCycles = pipe->cycles();
        sim.digest.add(sim.simCycles);
        const int slots = 2 * kSlotsPerStage;
        sim.puCycles = double(sim.simCycles) * slots;
        const cluster::Cluster &cl = pipe->cluster();
        int channels = 0;
        for (int d = 0; d < cl.numDevices(); ++d) {
            addChannelCounters(cl.deviceSystem(d), sim);
            channels += cl.deviceSystem(d).numShards();
        }
        finishDram(sim, channels);
        const cluster::LinkCounters &link = cl.link(0, 1).counters();
        sim.digest.add(link.busyCycles);
        sim.digest.add(link.bytesAccepted);
        setRuntimeCounters(sim, served, wait, service_cycles, slots,
                           loop.rounds);
        auto &c = sim.counters;
        c["cluster.rounds"] = double(loop.rounds);
        c["serve.release_lag_cycles"] =
            n ? double(loop.lagCycles) / double(n) : 0;
        c["cluster.link_busy_cycles"] = double(link.busyCycles);
        c["cluster.link_offers_refused"] = double(link.offersRefused);
        c["cluster.link_bytes"] = double(link.bytesAccepted);
        return pass;
    }

    std::vector<lang::Program> programs() const override
    {
        return {jsonProgram_, regexProgram_};
    }
    std::vector<std::vector<const BitBuffer *>>
    probeStreams() const override
    {
        std::vector<const BitBuffer *> in, mid;
        for (size_t j = 0; j < streams_.size(); ++j) {
            in.push_back(&streams_[j]);
            mid.push_back(&mids_[j]);
        }
        return {in, mid};
    }
    int jitLanes() const override { return kSlotsPerStage / kChannels; }
    int threads() const override { return kThreads; }
    double nominalPassSeconds() const override { return 2.9; }
    bool exercises(const std::string &metric) const override
    {
        if (startsWith(metric, "serve."))
            return metric == "serve.release_lag_cycles";
        return !startsWith(metric, "model.");
    }

  private:
    std::unique_ptr<apps::Application> json_;
    std::unique_ptr<apps::Application> regex_;
    lang::Program jsonProgram_;
    lang::Program regexProgram_;
    JobShape shape_;
    std::vector<serve::Arrival> arrivals_;
    std::vector<BitBuffer> streams_;
    std::vector<BitBuffer> mids_; ///< JsonParsing golden per job.
    std::vector<BitBuffer> goldens_;
};

std::unique_ptr<Workload>
makeWorkload(const std::string &name)
{
    if (name == "oneshot_compute")
        return std::make_unique<OneShot>("JsonParsing", 64, 64 * 1024,
                                         2.5);
    if (name == "oneshot_membound")
        return std::make_unique<OneShot>("Regex", 704, 16 * 1024, 6.0);
    if (name == "serve_poisson")
        return std::make_unique<Serve>();
    if (name == "pipeline_2dev")
        return std::make_unique<PipelineWorkload>();
    return nullptr;
}

/**
 * Time the set-up layers one public call at a time (the constructor
 * runs them internally, where the benchmark cannot see them). Times are
 * the spans' (see layerSeconds); this sets the counts.
 */
void
probeLayers(Workload &wl, SpanRecorder *rec, MetricList &layer,
            const std::string &out_dir)
{
    double nodes = 0, ops = 0, vcycles = 0, hits = 0;
    std::vector<lang::Program> programs = wl.programs();
    std::vector<std::vector<const BitBuffer *>> streams =
        wl.probeStreams();
    Status jit_ok = rtl::JitProgram::availability();
    for (size_t g = 0; g < programs.size(); ++g) {
        const lang::Program &program = programs[g];
        compile::CompiledUnit unit = [&] {
            ScopedSpan s(rec, "compile.compile", g);
            return compile::compileProgram(program);
        }();
        nodes += double(unit.circuit.nodes().size());
        rtl::OptResult opt = [&] {
            ScopedSpan s(rec, "rtl.opt", g);
            return rtl::optimize(unit.circuit);
        }();
        rtl::TapeProgram tape = [&] {
            ScopedSpan s(rec, "rtl.tape", g);
            return rtl::TapeProgram::compile(opt.circuit, false);
        }();
        ops += double(tape.ops.size());

        if (jit_ok.ok()) {
            rtl::JitOptions cold;
            cold.lanes = wl.jitLanes();
            cold.cacheDir = out_dir + "/jit-cold";
            cold.forceRecompile = true;
            std::filesystem::remove_all(cold.cacheDir);
            {
                ScopedSpan s(rec, "rtl.jit_cold_compile", g);
                rtl::JitProgram::compile(tape, cold);
            }
            std::filesystem::remove_all(cold.cacheDir);

            // Warm load as a fresh process sees it: the benchmark's
            // artifact cache is filled, the in-process registry is not.
            rtl::JitOptions warm;
            warm.lanes = wl.jitLanes();
            rtl::JitProgram::compile(tape, warm);
            rtl::JitProgram::dropInProcessCacheForTests();
            ScopedSpan s(rec, "rtl.jit_warm_load", g);
            auto prog = rtl::JitProgram::compile(tape, warm);
            hits += prog && prog->fromDiskCache();
        }

        const auto &set = streams[g];
        std::vector<uint64_t> vc(set.size(), 0);
        {
            ScopedSpan s(rec, "sim.functional", g);
            parallelFor(wl.threads(), set.size(), [&](size_t i) {
                sim::FunctionalSimulator fs(program);
                vc[i] = fs.run(*set[i]).vcycles;
            });
        }
        for (uint64_t v : vc)
            vcycles += double(v);
    }
    if (!jit_ok.ok())
        std::printf("note: jit unavailable (%s); rtl.jit_* report 0\n",
                    jit_ok.toString().c_str());
    layer.set("compile.circuit_nodes", nodes);
    layer.set("rtl.tape_ops", ops);
    layer.set("rtl.jit_cache_hit", hits);
    layer.set("sim.virtual_cycles", vcycles);
}

/**
 * Run one pass in a child process and hand its results back through a
 * pipe; the parent waits for the child before it returns. So every pass
 * starts from the state the warm-up left, whatever ran before it: the
 * functional simulator sizes its evaluation memo by process-wide
 * expression ids, and every FastPu arm mints new ones (about 60 per
 * JsonParsing job, 121,000 per serve_poisson pass), so in one process
 * each pass would also pay for the ids of all passes before it (serve's
 * fifth pass zeroes a ~9 MB memo per arm, its first ~1 MB) and no two
 * passes would do the same work. Returns false if the child failed.
 */
bool
runPass(Workload &wl, bool traced, uint64_t index, Pass &pass,
        std::vector<Span> &spans)
{
    int fd[2];
    if (pipe(fd) != 0)
        return false;
    std::fflush(stdout);
    std::fflush(stderr);
    const pid_t pid = fork();
    if (pid < 0) {
        close(fd[0]);
        close(fd[1]);
        return false;
    }
    if (pid == 0) {
        close(fd[0]);
        int status = 0;
        try {
            SpanRecorder rec;
            Pass p = wl.pass(traced ? &rec : nullptr, index);
            Wire w;
            encode(w, p, rec.spans());
            const std::string &b = w.bytes();
            for (size_t off = 0; off < b.size();) {
                ssize_t n = write(fd[1], b.data() + off, b.size() - off);
                if (n < 0 && errno == EINTR)
                    continue;
                if (n <= 0) {
                    status = 2;
                    break;
                }
                off += size_t(n);
            }
        } catch (const std::exception &e) {
            std::fprintf(stderr, "perfbench: pass %" PRIu64 ": %s\n",
                         index, e.what());
            status = 2;
        }
        close(fd[1]);
        _exit(status); // no atexit handlers or stdio flush in the child
    }
    close(fd[1]);
    std::string bytes;
    char buf[1 << 16];
    for (;;) {
        ssize_t n = read(fd[0], buf, sizeof(buf));
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        bytes.append(buf, size_t(n));
    }
    close(fd[0]);
    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
        return false;
    Wire w(std::move(bytes));
    return decode(w, pass, spans);
}

/** Self seconds per span layer, keyed "<layer>_s": the per-layer time
 * metric of that name where there is one. With `root`, only the spans
 * under root spans of that layer count. */
std::map<std::string, double>
layerSeconds(const std::vector<Span> &spans, const char *root = nullptr)
{
    std::vector<double> self = perfbench::selfTimes(spans);
    std::vector<int> top = perfbench::rootIndex(spans);
    std::map<std::string, double> out;
    for (size_t i = 0; i < spans.size(); ++i)
        if (!root || std::string(spans[top[i]].layer) == root)
            out[std::string(spans[i].layer) + "_s"] += self[i];
    return out;
}

/**
 * Role of a per-layer metric, printed next to it. Probes time a set-up
 * layer by itself, outside the passes: on the Fast backend construction
 * runs only the functional pre-run (inside system.construct_s) and none
 * of compile, RTL opt, tape or jit, so probe times are not part of any
 * pass and are left out of the accounting.
 */
const char *
layerRole(const Workload &wl, const std::string &metric)
{
    if (!wl.exercises(metric))
        return "not exercised by this workload";
    if (startsWith(metric, "compile.") || startsWith(metric, "rtl.") ||
        startsWith(metric, "sim."))
        return "standalone probe";
    return "";
}

/** Host seconds the recorder spends on one span (begin plus end). */
double
spanCostSeconds()
{
    const int n = 200000;
    SpanRecorder rec;
    double t0 = nowSeconds();
    for (int i = 0; i < n; ++i)
        ScopedSpan s(&rec, "cost", i);
    return (nowSeconds() - t0) / n;
}

/** Peak resident memory of this process and of the pass processes it
 * waited for, whichever is larger. */
double
peakRssMb()
{
    struct rusage self, children;
    getrusage(RUSAGE_SELF, &self);
    getrusage(RUSAGE_CHILDREN, &children);
    // ru_maxrss is KiB on Linux.
    return double(std::max(self.ru_maxrss, children.ru_maxrss)) / 1024.0;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            continue;
        out += c;
    }
    return out;
}

void
printResult(bool correct, const OpTally &tally, const MetricList &m)
{
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {",
                correct ? "true" : "false", tally.attempted,
                tally.failed());
    for (size_t i = 0; i < m.list().size(); ++i) {
        const Metric &x = m.list()[i];
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", x.name.c_str(), x.value,
                    x.unit.c_str());
    }
    std::printf("}}\n");
}

/** Closed-batch capacity of a job workload -> the gap for load rho. */
template <typename W>
double
calibrateGap(JobShape shape, double rho)
{
    const uint64_t batch = 512;
    JobShape closed = shape;
    closed.jobs = batch;
    closed.meanGapCycles = 1.0; // the whole batch arrives at once
    W wl(closed);
    wl.prepare(1);
    Pass p = wl.pass(nullptr, 0);
    if (p.tally.failed())
        return -1;
    return double(p.sim.simCycles) / (double(batch) * rho);
}

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload "
                 "oneshot_compute|oneshot_membound|serve_poisson|"
                 "pipeline_2dev --seed N --seconds S --trace 0|1 "
                 "[--out-dir DIR] [--git-sha SHA] "
                 "[--source-digest HEX]\n       %s --calibrate\n",
                 argv0, argv0);
    return 2;
}

int
benchMain(int argc, char **argv)
{
    std::string workload, out_dir = ".", git_sha = "unknown",
                          source_digest = "unknown";
    uint64_t seed = 0;
    double seconds = -1;
    int trace = -1;
    bool calibrate = false, have_seed = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        const char *v = nullptr;
        if (a == "--calibrate") {
            calibrate = true;
            continue;
        }
        if (!(v = value()))
            return usage(argv[0]);
        char *end = nullptr;
        if (a == "--workload") {
            workload = v;
        } else if (a == "--seed") {
            seed = std::strtoull(v, &end, 10);
            have_seed = *v && !*end;
        } else if (a == "--seconds") {
            seconds = std::strtod(v, &end);
            if (!*v || *end)
                seconds = -1;
        } else if (a == "--trace") {
            trace = std::string(v) == "0" ? 0
                    : std::string(v) == "1" ? 1
                                            : -1;
        } else if (a == "--out-dir") {
            out_dir = v;
        } else if (a == "--git-sha") {
            git_sha = v;
        } else if (a == "--source-digest") {
            source_digest = v;
        } else {
            return usage(argv[0]);
        }
    }

    if (calibrate) {
        std::printf("serve_poisson mean gap (rho 0.8): %.1f cycles\n",
                    calibrateGap<Serve>(Serve::kShape, 0.8));
        std::printf("pipeline_2dev mean gap (rho 0.5): %.1f cycles\n",
                    calibrateGap<PipelineWorkload>(
                        PipelineWorkload::kShape, 0.5));
        return 0;
    }

    std::unique_ptr<Workload> wl = makeWorkload(workload);
    if (!wl || !have_seed || seconds <= 0 || trace < 0)
        return usage(argv[0]);
    nowSeconds(); // fix the clock's epoch before any pass process forks

    const std::string flags = PERFBENCH_CXX_FLAGS;
    if (kSanitizerMacro || flags.find("-fsanitize") != std::string::npos) {
        std::fprintf(stderr, "perfbench: refusing to report timings from "
                             "a sanitizer build (%s)\n",
                     flags.c_str());
        return 3;
    }

    std::error_code ec;
    std::filesystem::create_directories(out_dir, ec);
    if (ec) {
        std::fprintf(stderr, "perfbench: cannot create %s\n",
                     out_dir.c_str());
        return 2;
    }
    out_dir = std::filesystem::absolute(out_dir).string();
    // Job workloads: keep freed memory in the heap for reuse. By default
    // glibc maps every block above a threshold that only rises to the last
    // block freed, and each FastPu arm allocates an evaluation memo larger
    // than the last (it grows with what the process has simulated, see
    // runPass); each arm would then pay page faults, whose cost on a
    // shared host swings far more between runs than the work does. The
    // fixed threshold is glibc's largest, above the memos these workloads
    // reach. The one-shot workloads keep the defaults: they arm each PU
    // once, and without trimming their peak RSS varies by 10% between runs.
    if (wl->jobs()) {
        mallopt(M_MMAP_THRESHOLD, 32 << 20);
        mallopt(M_TRIM_THRESHOLD, -1);
    }
    // The jit artifact cache belongs to the benchmark, so its warm state
    // is explicit and nothing outside the output directory is touched.
    setenv("FLEET_JIT_CACHE_DIR", (out_dir + "/jit-cache").c_str(), 1);

    std::printf("workload %s: %s\n", workload.c_str(),
                wl->describe().c_str());
    wl->prepare(seed);
    wl->warmUp();
    const size_t passes = std::max<size_t>(
        kMinPasses, size_t(seconds / wl->nominalPassSeconds()));

    MetricList layer;
    for (const auto &[name, unit] : kLayerMetrics)
        layer.add(name, 0.0, unit);
    SpanRecorder all_spans;
    if (trace) {
        probeLayers(*wl, &all_spans, layer, out_dir);
        for (const auto &[metric, s] : layerSeconds(all_spans.spans()))
            layer.set(metric, s);
    }

    // Measure: untraced passes only, or untraced and traced alternating.
    std::vector<Pass> plain, traced;
    std::vector<double> traced_iteration;
    std::vector<std::map<std::string, double>> traced_layers;
    size_t traced_spans = 0;
    bool deterministic = true, self_times_add_up = true;
    Digest first_digest;
    bool have_first = false;
    for (uint64_t i = 0; i < passes; ++i) {
        bool with_spans = trace && i % 2 == 1;
        Pass p;
        std::vector<Span> spans;
        if (!runPass(*wl, with_spans, i, p, spans)) {
            std::fprintf(stderr, "perfbench: pass %" PRIu64 " failed in "
                                 "its child process\n", i);
            return 2;
        }
        if (!have_first) {
            first_digest = p.sim.digest;
            have_first = true;
        } else if (p.sim.digest.value() != first_digest.value()) {
            deterministic = false;
        }
        std::printf("pass %" PRIu64 "%s: setup %.6f s, host %.6f s\n", i,
                    with_spans ? " (traced)" : "", p.setupS, p.hostS);
        if (with_spans) {
            // The pass's layers are the spans under its iteration root;
            // verification is a root of its own and stays out. Their
            // self times must add up to the root's duration.
            std::map<std::string, double> layers =
                layerSeconds(spans, "iteration");
            double sum = 0.0;
            for (const auto &[metric, s] : layers)
                sum += s;
            const Span &root = spans.front();
            const double dur = root.end - root.start;
            self_times_add_up =
                self_times_add_up && std::fabs(sum - dur) <= 1e-9 * dur;
            traced_iteration.push_back(dur);
            traced_layers.push_back(std::move(layers));
            traced_spans += spans.size();
            const int base = int(all_spans.spans().size());
            for (Span s : spans) {
                if (s.parent >= 0)
                    s.parent += base;
                all_spans.add(s);
            }
            traced.push_back(std::move(p));
        } else {
            plain.push_back(std::move(p));
        }
    }

    const Pass &ref = plain.front();
    const SimResult &sim = ref.sim;
    std::vector<double> setup, total;
    std::vector<std::vector<double>> steps;
    for (const Pass &p : plain) {
        setup.push_back(p.setupS);
        total.push_back(p.totalS);
        steps.push_back(p.steps);
    }
    // Passes simulate the same rounds, so their steps line up.
    const double host_s = perfbench::fastestSteps(steps);
    if (host_s < 0)
        deterministic = false;
    OpTally tally = ref.tally;
    bool correct = deterministic && tally.failed() == 0;
    for (const Pass &p : plain)
        correct = correct && p.tally.failed() == 0;
    for (const Pass &p : traced)
        correct = correct && p.tally.failed() == 0;

    Percentile p50 = perfbench::percentile(sim.latencies, 0.50);
    Percentile p99 = perfbench::percentile(sim.latencies, 0.99);
    if (wl->jobs() && p99.beyond < kMinBeyond) {
        std::fprintf(stderr,
                     "perfbench: p99 has %zu samples beyond it (need "
                     "%zu); the workload serves too few jobs\n",
                     p99.beyond, kMinBeyond);
        return 2;
    }
    const double clock_mhz = baseConfig(wl->threads()).clockMHz;
    const double sim_seconds = double(sim.simCycles) / (clock_mhz * 1e6);

    MetricList e2e;
    e2e.add("setup_s", *std::min_element(setup.begin(), setup.end()),
            "s");
    e2e.add("host_MBps", double(sim.inputBytes) / 1e6 / host_s, "MB/s");
    e2e.add("jobs_per_s", double(tally.attempted) / host_s, "1/s");
    e2e.add("sim_gbps", double(sim.inputBytes) / sim_seconds / 1e9,
            "GB/s");
    e2e.add("p50_cycles", double(p50.value), "cycles");
    e2e.add("p99_cycles", double(p99.value), "cycles");
    e2e.add("peak_rss_mb", peakRssMb(), "MB");

    char digest_hex[17];
    std::snprintf(digest_hex, sizeof(digest_hex), "%016" PRIx64,
                  sim.digest.value());
    std::string backends;
    for (const auto &[name, count] : sim.slotBackends)
        backends += (backends.empty() ? "" : ", ") + std::string("\"") +
                    name + "\": " + std::to_string(count);

    for (const Metric &m : e2e.list())
        std::printf("%-24s %16.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("%-24s %16.6g frac (%" PRIu64 " of %" PRIu64
                " operations)\n",
                "failed_frac", tally.failedFrac(), tally.failed(),
                tally.attempted);
    std::printf("%-24s %16s\n", "sim_digest", digest_hex);
    std::printf("passes: %zu untraced, %zu traced; setup_s over %zu "
                "set-ups; host time over %zu steps; p50 over %zu samples, "
                "p99 over %zu samples with %zu beyond\n",
                plain.size(), traced.size(), setup.size(),
                ref.steps.size(), p50.samples, p99.samples, p99.beyond);

    if (trace) {
        for (const auto &[name, value] : sim.counters)
            layer.set(name, value);
        std::map<std::string, std::vector<double>> per;
        for (const auto &t : traced_layers)
            for (const auto &[metric, s] : t)
                per[metric].push_back(s);
        for (const auto &[metric, v] : per)
            layer.set(metric, median(v));
        double run_s = layer.get("system.run_s");
        if (run_s == 0.0) // serve and pipeline simulate inside pump/step
            run_s = layer.get("serve.pump_s") + layer.get("cluster.step_s");
        layer.set("system.run_s", run_s);
        layer.set("system.sim_cycles", double(sim.simCycles));
        layer.set("system.pu_mcycles_per_s",
                  run_s > 0 ? sim.puCycles / run_s / 1e6 : 0);
        // Overhead as host time: traced pass over untraced pass, minus 1.
        // Passes alternate, so both medians see the same drift. A traced
        // pass is the sum of its layers' self times (checked per pass),
        // so they account for the untraced pass within this overhead.
        const double traced_pass = median(traced_iteration);
        const double untraced_pass = median(total);
        const double overhead = traced_pass / untraced_pass - 1.0;
        layer.set("trace.overhead_frac", overhead);
        std::printf("accounting: median self time per layer of a traced "
                    "pass (iteration_s: under no layer span):\n");
        for (const auto &[metric, v] : per)
            std::printf("  %-30s %12.6f s\n", metric.c_str(), median(v));
        std::printf("accounting: traced pass %.6f s = sum of its layer self "
                    "times (%s); untraced pass (set-up + run + output) "
                    "%.6f s; traced / untraced - 1 = %+.4f\n",
                    traced_pass,
                    self_times_add_up ? "holds in every traced pass"
                                      : "VIOLATED",
                    untraced_pass, overhead);
        // What recording alone costs, which host noise between passes
        // can hide: the recorder's cost per span times spans per pass.
        const double span_cost = spanCostSeconds();
        const double spans_per_pass =
            traced.empty() ? 0 : double(traced_spans) / traced.size();
        std::printf("accounting: recording %.0f spans per traced pass at "
                    "%.3g s each = %.3g of an untraced pass\n",
                    spans_per_pass, span_cost,
                    spans_per_pass * span_cost / untraced_pass);
        if (!self_times_add_up) {
            std::fprintf(stderr, "perfbench: layer self times do not add "
                                 "up to the traced pass\n");
            return 2;
        }
        std::string trace_path = out_dir + "/trace_" + workload + "_" +
                                 std::to_string(seed) + ".json";
        if (!perfbench::writeChromeTrace(trace_path, all_spans.spans())) {
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         trace_path.c_str());
            return 2;
        }
        std::printf("trace written: %s (%zu spans)\n", trace_path.c_str(),
                    all_spans.spans().size());
        for (const Metric &m : layer.list())
            std::printf("%-32s %16.6g %-10s %s\n", m.name.c_str(), m.value,
                        m.unit.c_str(), layerRole(*wl, m.name));
    }

    std::printf(
        "{\"provenance\": {\"git_sha\": \"%s\", \"source_digest\": "
        "\"%s\", \"build_type\": \"%s\", \"cxx_flags\": \"%s\", "
        "\"compiler\": \"%s\", \"nproc\": %u, \"num_threads\": %d, "
        "\"backend\": \"%s\", \"slot_backends\": {%s}, \"workload\": "
        "\"%s\", \"seed\": %" PRIu64 ", \"held_out_seed\": %" PRIu64
        ", \"seconds\": %g, \"trace\": %d, \"passes\": %zu, "
        "\"p50_samples\": %zu, \"p99_samples\": %zu, \"p99_beyond\": %zu, "
        "\"sim_digest\": \"%s\", \"failed_frac\": %.17g}}\n",
        jsonEscape(git_sha).c_str(), jsonEscape(source_digest).c_str(),
        PERFBENCH_BUILD_TYPE, jsonEscape(flags).c_str(),
        jsonEscape(__VERSION__).c_str(),
        std::thread::hardware_concurrency(), wl->threads(),
        system::puBackendName(baseConfig(wl->threads()).backend),
        backends.c_str(),
        workload.c_str(), seed, kHeldOutSeed, seconds, trace,
        plain.size() + traced.size(), p50.samples, p99.samples, p99.beyond,
        digest_hex, tally.failedFrac());

    if (!deterministic)
        std::fprintf(stderr, "perfbench: passes disagree on simulated "
                             "results (sim_digest or rounds)\n");
    if (tally.failed())
        std::fprintf(stderr, "perfbench: %" PRIu64 " of %" PRIu64
                             " operations failed\n",
                     tally.failed(), tally.attempted);
    printResult(correct, tally, trace ? layer : e2e);
    std::fflush(stdout);
    return correct ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return benchMain(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }
}
