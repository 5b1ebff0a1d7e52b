#include "system/fleet_system.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <functional>
#include <map>
#include <sstream>
#include <thread>
#include <tuple>

#include "compile/compiler.h"
#include "model/area.h"
#include "rtl/jit.h"
#include "system/pu_fast.h"
#include "system/pu_rtl_batch.h"
#include "util/bits.h"
#include "util/logging.h"

namespace fleet {
namespace system {

namespace {

int
hardwareThreads()
{
    unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
}

/**
 * Run fn(0..jobs-1) on up to `threads` workers. Jobs must be mutually
 * independent. Exceptions are captured per job and the lowest-index one
 * is rethrown after the pool joins, matching the error a sequential loop
 * would surface first.
 */
void
parallelFor(int threads, int jobs, const std::function<void(int)> &fn)
{
    if (jobs <= 0)
        return;
    if (threads <= 1 || jobs == 1) {
        for (int i = 0; i < jobs; ++i)
            fn(i);
        return;
    }
    std::atomic<int> next{0};
    std::vector<std::exception_ptr> errors(jobs);
    {
        std::vector<std::jthread> pool;
        pool.reserve(std::min(threads, jobs));
        for (int t = 0; t < std::min(threads, jobs); ++t) {
            pool.emplace_back([&] {
                for (int i = next.fetch_add(1); i < jobs;
                     i = next.fetch_add(1)) {
                    try {
                        fn(i);
                    } catch (...) {
                        errors[i] = std::current_exception();
                    }
                }
            });
        }
    } // jthreads join here.
    for (auto &error : errors)
        if (error)
            std::rethrow_exception(error);
}

} // namespace

int
FleetSystem::resolveThreads(int jobs) const
{
    int threads = config_.numThreads;
    if (threads <= 0)
        threads = hardwareThreads();
    return std::max(1, std::min(threads, jobs));
}

FleetSystem::FleetSystem(const lang::Program &program,
                         const SystemConfig &config,
                         std::vector<BitBuffer> streams)
    : programs_(1, program), config_(config)
{
    if (streams.empty())
        fatal("FleetSystem: needs at least one stream");
    const int num_slots = static_cast<int>(streams.size());
    const int in_width = program.inputTokenWidth;
    slotPrograms_.resize(num_slots);
    truncation_.resize(num_slots);
    // Each slot holds one job, its id the PU index. Truncation comes
    // before layout, so each input region is sized from the stream its
    // unit will read.
    std::vector<uint64_t> region_bytes(num_slots);
    for (int p = 0; p < num_slots; ++p) {
        if (streams[p].sizeBits() % in_width != 0)
            fatal("FleetSystem: stream ", p,
                  " is not a whole number of tokens");
        streams[p].resizeBits(
            truncate(p, streams[p].sizeBits() / in_width, uint64_t(p)) *
            in_width);
        region_bytes[p] = ceilDiv(streams[p].sizeBits(), 8);
    }
    build(region_bytes);

    // Start the clock and arm every slot as armJob arms a job. Loading
    // is independent per slot and FastPu's pre-run dominates
    // construction, so the slots load on the worker pool, each stream
    // dropped once its slot holds it. A unit that refuses its stream is
    // contained at cycle 0 while its channel-mates run.
    beginSession();
    std::vector<Status> loaded(num_slots);
    parallelFor(resolveThreads(num_slots), num_slots, [&](int p) {
        loaded[p] = loadSlot(p, streams[p]);
        streams[p] = BitBuffer{};
    });
    for (int p = 0; p < num_slots; ++p) {
        ChannelShard &shard = *shards_[puShard_[p]];
        shard.rearmPu(puLocal_[p], truncation_[p].first * in_width,
                      uint64_t(p));
        if (!loaded[p].ok())
            shard.cancelPu(puLocal_[p], std::move(loaded[p]));
    }
}

FleetSystem::FleetSystem(const lang::Program &program,
                         const SystemConfig &config, int num_slots)
    : FleetSystem(std::vector<lang::Program>(1, program), config,
                  std::vector<uint32_t>(std::max(num_slots, 0), 0))
{
}

FleetSystem::FleetSystem(std::vector<lang::Program> programs,
                         const SystemConfig &config,
                         std::vector<uint32_t> slot_programs)
    : programs_(std::move(programs)), config_(config),
      slotPrograms_(std::move(slot_programs)), sessionMode_(true)
{
    if (programs_.empty())
        fatal("FleetSystem: session needs at least one program");
    if (slotPrograms_.empty())
        fatal("FleetSystem: session needs at least one slot");
    for (size_t p = 0; p < slotPrograms_.size(); ++p) {
        if (slotPrograms_[p] >= programs_.size()) {
            std::ostringstream os;
            os << "FleetSystem: slot " << p
               << " binds unknown program index " << slotPrograms_[p]
               << " (have " << programs_.size() << ")";
            throw StatusError(
                Status::make(StatusCode::InvalidArgument, os.str()));
        }
    }
    // One channel-wide controller configuration serves every slot, so
    // the hosted programs must agree on both token widths.
    for (size_t g = 1; g < programs_.size(); ++g) {
        if (programs_[g].inputTokenWidth != programs_[0].inputTokenWidth ||
            programs_[g].outputTokenWidth !=
                programs_[0].outputTokenWidth) {
            std::ostringstream os;
            os << "FleetSystem: program " << g << " token widths ("
               << programs_[g].inputTokenWidth << " in, "
               << programs_[g].outputTokenWidth
               << " out) differ from program 0 ("
               << programs_[0].inputTokenWidth << " in, "
               << programs_[0].outputTokenWidth
               << " out); a session's programs must share widths";
            throw StatusError(
                Status::make(StatusCode::InvalidArgument, os.str()));
        }
    }
    // A genuine mix must fit the device: every slot's unit coexists on
    // the fabric at once (per-slot program binding is static).
    if (programs_.size() > 1) {
        Status fit = checkProgramMix(programs_, slotPrograms_, config_);
        if (!fit.ok())
            throw StatusError(std::move(fit));
    }
    truncation_.resize(slotPrograms_.size());
    // Every slot gets a fixed-size input region each job must fit (the
    // stream is re-uploaded to the region base at each arm).
    build(std::vector<uint64_t>(
        slotPrograms_.size(),
        config_.inputRegionBytes ? config_.inputRegionBytes : 256 * 1024));
}

Status
FleetSystem::checkProgramMix(const std::vector<lang::Program> &programs,
                             const std::vector<uint32_t> &slot_programs,
                             const SystemConfig &config,
                             const model::Device &device)
{
    if (programs.empty())
        return Status::make(StatusCode::InvalidArgument,
                            "checkProgramMix: no programs");
    std::vector<bool> used(programs.size(), false);
    for (uint32_t g : slot_programs) {
        if (g >= programs.size()) {
            std::ostringstream os;
            os << "checkProgramMix: slot references unknown program "
               << g;
            return Status::make(StatusCode::InvalidArgument, os.str());
        }
        used[g] = true;
    }

    // Per-program PU cost, estimated from the compiled circuit exactly
    // as the single-program area model does (model/area.h); compile
    // each distinct bound program once.
    std::vector<model::Resources> per(programs.size());
    for (size_t g = 0; g < programs.size(); ++g) {
        if (!used[g])
            continue;
        compile::CompiledUnit unit =
            compile::compileProgram(programs[g]);
        per[g] = model::estimatePuResources(unit.circuit,
                                            config.inputCtrl);
    }

    model::Resources total;
    for (uint32_t g : slot_programs)
        total += per[g];
    model::Resources ctrl =
        model::estimateControllerResources(config.inputCtrl);
    for (int c = 0; c < config.numChannels; ++c)
        total += ctrl;

    auto budget = [&](uint64_t raw) {
        uint64_t shell = static_cast<uint64_t>(raw *
                                               device.shellFraction);
        return raw > shell ? raw - shell : 0;
    };
    struct Check
    {
        const char *what;
        uint64_t need, have;
    };
    const Check checks[] = {
        {"LUTs", total.luts, budget(device.luts)},
        {"FFs", total.ffs, budget(device.ffs)},
        {"BRAM36", total.bram36, budget(device.bram36)},
        {"DSPs", total.dsps, budget(device.dsps)},
    };
    for (const Check &check : checks) {
        if (check.need > check.have) {
            std::ostringstream os;
            os << "program mix does not fit " << device.name << ": needs "
               << check.need << " " << check.what << " but only "
               << check.have << " remain net of the shell ("
               << slot_programs.size() << " slots, " << config.numChannels
               << " channels); bind fewer slots or smaller programs";
            return Status::make(StatusCode::ResourceExhausted, os.str());
        }
    }
    return Status::make(StatusCode::Ok);
}

void
FleetSystem::build(const std::vector<uint64_t> &input_region_bytes)
{
    if (config_.numChannels < 1)
        fatal("FleetSystem: needs at least one channel");

    const uint64_t burst_bytes = config_.inputCtrl.burstBits / 8;
    const int channels = config_.numChannels;
    const int num_slots = static_cast<int>(input_region_bytes.size());

    // Tell the controllers the PU token widths so the per-PU buffers
    // can carry the one-token skid space that keeps non-dividing token
    // widths from wedging at bufferBursts = 1 (memctl/params.h). The
    // hosted programs are validated width-equal, so program 0 speaks
    // for all.
    config_.inputCtrl.tokenBits = programs_[0].inputTokenWidth;
    config_.outputCtrl.tokenBits = programs_[0].outputTokenWidth;

    slotBackends_.assign(num_slots, config_.backend);

    // Lay out each channel's memory: all of its PUs' input regions,
    // then their output regions.
    struct Layout
    {
        std::vector<memctl::StreamRegion> inputs;
        std::vector<memctl::StreamRegion> outputs;
        std::vector<int> globalPu;
        uint64_t bytes = 0;
    };
    std::vector<Layout> layouts(channels);

    inputRegions_.resize(num_slots);
    outputRegions_.resize(num_slots);
    puShard_.resize(num_slots);
    puLocal_.resize(num_slots);
    for (int p = 0; p < num_slots; ++p) {
        int ch = p % channels;
        Layout &layout = layouts[ch];
        puShard_[p] = ch;
        puLocal_[p] = static_cast<int>(layout.globalPu.size());

        // Lanes start parked; arming a slot sets its stream length.
        memctl::StreamRegion in;
        in.baseAddr = layout.bytes;
        in.regionBytes = roundUp(input_region_bytes[p], burst_bytes);
        layout.bytes += in.regionBytes;

        memctl::StreamRegion out;
        // Auto sizing honors the program's declared worst-case output
        // expansion (never below the historical 2x), plus slack for
        // cleanup-cycle output that is independent of stream length.
        double expansion = std::max(2.0, slotProgram(p).maxOutputExpansion);
        uint64_t out_bytes =
            static_cast<uint64_t>(
                std::ceil(double(in.regionBytes) * expansion)) +
            8192;
        out.baseAddr = 0; // Assigned after all input regions.
        out.regionBytes = roundUp(out_bytes, burst_bytes);
        out.streamBits = 0;

        layout.inputs.push_back(in);
        layout.outputs.push_back(out);
        layout.globalPu.push_back(p);
    }
    for (auto &layout : layouts) {
        for (auto &out : layout.outputs) {
            out.baseAddr = layout.bytes;
            layout.bytes += out.regionBytes;
        }
    }

    // Instantiate one self-contained shard per channel.
    for (int ch = 0; ch < channels; ++ch) {
        Layout &layout = layouts[ch];
        auto shard = std::make_unique<ChannelShard>(
            ch, config_.dram, config_.inputCtrl, config_.outputCtrl,
            layout.inputs, layout.outputs,
            std::max<uint64_t>(layout.bytes, burst_bytes),
            config_.faults, config_.trace);
        shard->setWatchdogStreamFactor(config_.watchdogStreamFactor);
        for (size_t l = 0; l < layout.inputs.size(); ++l) {
            inputRegions_[layout.globalPu[l]] = layout.inputs[l];
            outputRegions_[layout.globalPu[l]] = layout.outputs[l];
        }
        shards_.push_back(std::move(shard));
    }

    // Instantiate the processing units, parked. Each hosted program is
    // prepared once for the device's engine (evaluation plan, or
    // optimizer + tape) and shared by every slot bound to it; FastPus
    // share their plan across every arm (see FastPu).
    const PuBackend backend = config_.backend;
    std::vector<std::shared_ptr<const sim::EvalPlan>> plans(
        programs_.size());
    std::vector<std::shared_ptr<const RtlTapeEngine>> engines(
        programs_.size());
    // The batched engines group slots by (channel, program): one
    // RtlBatch per group, attached with the channel-local lanes it
    // drives. A single-program session degenerates to one
    // whole-channel batch.
    std::vector<std::map<uint32_t, std::vector<int>>> groups(channels);
    for (int p = 0; p < num_slots; ++p) {
        const uint32_t g = slotPrograms_[p];
        switch (backend) {
          case PuBackend::Fast:
            if (!plans[g])
                plans[g] =
                    std::make_shared<const sim::EvalPlan>(programs_[g]);
            break;
          case PuBackend::Rtl:
          case PuBackend::RtlJit:
            if (!engines[g])
                engines[g] =
                    std::make_shared<const RtlTapeEngine>(programs_[g]);
            groups[puShard_[p]][g].push_back(p);
            break;
        }
    }
    // Per-slot (batch, lane-in-batch) for RtlBatchLane construction.
    std::vector<std::pair<std::shared_ptr<RtlBatch>, int>> slotBatch(
        num_slots);
    std::vector<char> jitFallbackLogged(programs_.size(), 0);
    for (int ch = 0; ch < channels; ++ch) {
        for (auto &[g, globals] : groups[ch]) {
            const int lanes = static_cast<int>(globals.size());
            auto batch = std::make_shared<RtlBatch>(engines[g], lanes);
            // Arm-time native compilation (ISSUE 9): one kernel per
            // (program, lane count), deduplicated across channels by
            // the in-process registry and across processes by the
            // on-disk artifact cache. Compilation is best-effort: any
            // failure (FLEET_JIT_DISABLE, no toolchain, compile/dlopen
            // error) demotes the group to the interpreted batch with
            // one structured log line per program — never an abort —
            // and slotBackend() reports the demotion.
            if (backend == PuBackend::RtlJit) {
                rtl::JitOptions jopts;
                jopts.lanes = lanes;
                Status jit_status;
                if (auto jit = rtl::JitProgram::compile(
                        *engines[g]->tape(), jopts, &jit_status)) {
                    batch->attachJit(std::move(jit));
                } else {
                    if (!jitFallbackLogged[g]) {
                        jitFallbackLogged[g] = 1;
                        inform("rtl-jit: fallback backend=rtl program=",
                               g, " reason=", jit_status.toString());
                    }
                    for (int p : globals)
                        slotBackends_[p] = PuBackend::Rtl;
                }
            }
            std::vector<int> locals;
            locals.reserve(globals.size());
            for (int lane = 0; lane < lanes; ++lane) {
                locals.push_back(puLocal_[globals[lane]]);
                slotBatch[globals[lane]] = {batch, lane};
            }
            shards_[ch]->attachBatch(std::move(batch), std::move(locals));
        }
    }
    auto makeUnit = [&](int p) -> std::unique_ptr<ProcessingUnit> {
        const uint32_t g = slotPrograms_[p];
        if (backend == PuBackend::Fast)
            return std::make_unique<FastPu>(programs_[g], plans[g]);
        return std::make_unique<RtlBatchLane>(slotBatch[p].first,
                                              slotBatch[p].second);
    };
    // Units are allocated shard by shard, so the state each shard's
    // thread writes per cycle (FastPu's handshake registers) sits
    // together, away from other shards' lines.
    for (int ch = 0; ch < channels; ++ch)
        for (int p : layouts[ch].globalPu)
            shards_[ch]->addPu(makeUnit(p), p);
}

Status
FleetSystem::loadSlot(int pu, const BitBuffer &stream)
{
    ChannelShard &shard = *shards_[puShard_[pu]];
    stream.copyBytes(shard.channel().memory().data() +
                     inputRegions_[pu].baseAddr);
    return shard.armUnit(puLocal_[pu], stream);
}

FleetSystem::~FleetSystem() = default;

const RunReport &
FleetSystem::run()
{
    // Protocol misuse is a structured error, not a silent re-run: the
    // report and the DRAM output regions still hold the first run's
    // results, and re-running in place would clobber them. Re-use of a
    // system across many streams is what session mode is for.
    if (sessionMode_)
        throw StatusError(Status::make(
            StatusCode::InvalidState,
            "FleetSystem::run() on a session-mode system; arm jobs and "
            "step epochs instead (runtime/session.h)"));
    if (ran_)
        throw StatusError(Status::make(
            StatusCode::InvalidState,
            "FleetSystem::run() called twice; construct a fresh system "
            "or serve many streams through runtime::Session"));
    // One unbounded epoch: every shard runs until its slots drain or
    // its channel halts, then the run settles as a session finishes.
    stepEpoch(UINT64_MAX);
    settle("PU");
    return report_;
}

uint64_t
FleetSystem::truncate(int pu, uint64_t tokens, uint64_t job_id)
{
    // Stream truncation models a short or interrupted upload. It keys by
    // job id, so a job's fate is independent of the slot it lands on.
    const uint64_t keep =
        config_.faults.enabled()
            ? fault::truncatedJobTokens(config_.faults, job_id, tokens)
            : tokens;
    truncation_[pu] = {keep, tokens};
    return keep;
}

void
FleetSystem::markTruncated(int pu, const char *what, uint64_t id,
                           Status &status) const
{
    auto [kept, original] = truncation_[pu];
    if (status.code != StatusCode::Ok || kept == original)
        return;
    // The unit completed, but over an injected short stream: surface
    // that so callers don't mistake partial coverage for a full run.
    std::ostringstream os;
    os << what << " " << id << ": input stream truncated to " << kept
       << " of " << original << " tokens";
    status = Status::make(StatusCode::StreamTruncated, os.str());
}

void
FleetSystem::settle(const char *what)
{
    report_ = RunReport{};
    report_.channels.resize(numShards());
    report_.pus.resize(numPus());
    for (int s = 0; s < numShards(); ++s)
        report_.channels[s] = shards_[s]->finishRun();
    for (int p = 0; p < numPus(); ++p) {
        PuOutcome &outcome = report_.pus[p];
        outcome = shards_[puShard_[p]]->puOutcome(puLocal_[p]);
        // The slot's last job, keyed by its id as retireJob keys it.
        markTruncated(p, what, outcome.jobId, outcome.status);
    }

    // Assemble the observability report on the calling thread, in
    // channel order — deterministic regardless of how many workers
    // stepped the shards.
    if (config_.trace.enabled()) {
        auto trace_report = std::make_shared<trace::TraceReport>();
        trace_report->config = config_.trace;
        trace_report->clockMHz = config_.clockMHz;
        for (auto &shard : shards_)
            trace_report->channels.push_back(shard->takeTrace());
        trace_report->sessionTracks = std::move(sessionTracks_);
        report_.trace = std::move(trace_report);
    }

    cycles_ = sessionCycles();
    ran_ = true;
}

const RunReport &
FleetSystem::report() const
{
    if (!ran_)
        throw StatusError(Status::make(
            StatusCode::InvalidState,
            "FleetSystem::report() before a run produced one"));
    return report_;
}

BitBuffer
FleetSystem::readOutput(int pu, uint64_t bits) const
{
    // Output regions start on a byte boundary: copy the bytes that
    // hold the flushed bits, then drop the last byte's unused high bits.
    const auto &mem = shards_[puShard_[pu]]->channel().memory();
    BitBuffer out = BitBuffer::fromBytes(
        mem.data() + outputRegions_[pu].baseAddr, ceilDiv(bits, 8));
    out.resizeBits(bits);
    return out;
}

void
FleetSystem::checkPu(int pu, const char *what) const
{
    if (pu < 0 || pu >= numPus())
        throw StatusError(Status::make(
            StatusCode::InvalidArgument,
            std::string(what) + ": no such PU " + std::to_string(pu)));
}

const PuStats &
FleetSystem::puStats(int pu) const
{
    checkPu(pu, "puStats");
    return shards_[puShard_[pu]]->puStats(puLocal_[pu]);
}

BitBuffer
FleetSystem::output(int pu) const
{
    checkPu(pu, "output");
    if (!ran_)
        throw StatusError(Status::make(
            StatusCode::InvalidState,
            "FleetSystem::output() before a run produced one"));
    const ChannelShard &shard = *shards_[puShard_[pu]];
    int local = puLocal_[pu];
    uint64_t bits = shard.flushedPayloadBits(local);
    // A contained or stranded unit legitimately flushed less than it
    // emitted — its output is the partial prefix. Only a *successful*
    // unit losing bits would be a framework bug.
    if (report_.pus[pu].ok() && bits != shard.emittedBits(local))
        panic("FleetSystem: controller flushed ", bits,
              " bits but the unit emitted ", shard.emittedBits(local));
    return readOutput(pu, bits);
}

// ---------------------------------------------------------------------------
// Session mode (driven by runtime::Session)

void
FleetSystem::beginSession()
{
    if (begun_)
        return;
    const int in_width = programs_[0].inputTokenWidth;
    const int out_width = programs_[0].outputTokenWidth;
    for (auto &shard : shards_)
        shard->beginRun(in_width, out_width, config_.maxCycles,
                        config_.watchdogCycles);
    begun_ = true;
}

Status
FleetSystem::armJob(int pu, const BitBuffer &stream, uint64_t job_id)
{
    if (!sessionMode_)
        return Status::make(StatusCode::InvalidState,
                            "armJob: system was built one-shot; use the "
                            "session constructor");
    if (pu < 0 || pu >= numPus())
        return Status::make(StatusCode::InvalidArgument,
                            "armJob: no such slot");
    beginSession();
    ChannelShard &shard = *shards_[puShard_[pu]];
    const int local = puLocal_[pu];
    if (shard.state() == ShardState::Halted) {
        std::ostringstream os;
        os << "armJob: channel " << puShard_[pu]
           << " halted: " << shard.haltStatus().toString();
        return Status::make(StatusCode::InvalidState, os.str());
    }
    if (!shard.puParked(local)) {
        std::ostringstream os;
        os << "armJob: slot " << pu << " still holds job "
           << shard.puOutcome(local).jobId
           << " (retire the drained job first)";
        return Status::make(StatusCode::InvalidState, os.str());
    }
    const int in_width = slotProgram(pu).inputTokenWidth;
    if (stream.sizeBits() % in_width != 0) {
        std::ostringstream os;
        os << "armJob: job " << job_id
           << "'s stream is not a whole number of tokens";
        return Status::make(StatusCode::InvalidArgument, os.str());
    }

    const uint64_t stream_bits =
        truncate(pu, stream.sizeBits() / in_width, job_id) * in_width;
    if (ceilDiv(stream_bits, 8) > inputRegions_[pu].regionBytes) {
        std::ostringstream os;
        os << "armJob: job " << job_id << "'s stream ("
           << ceilDiv(stream_bits, 8) << " bytes) exceeds the "
           << inputRegions_[pu].regionBytes
           << "-byte input region (raise "
              "SystemConfig::inputRegionBytes)";
        return Status::make(StatusCode::InvalidArgument, os.str());
    }

    // Only a truncated stream is copied, to cut it. A unit that
    // refuses the stream leaves the slot parked for the next job.
    BitBuffer cut;
    if (stream_bits != stream.sizeBits()) {
        cut = stream;
        cut.resizeBits(stream_bits);
    }
    Status loaded =
        loadSlot(pu, stream_bits == stream.sizeBits() ? stream : cut);
    if (loaded.ok())
        shard.rearmPu(local, stream_bits, job_id);
    return loaded;
}

void
FleetSystem::stepEpoch(uint64_t epoch_cycles)
{
    auto start = std::chrono::steady_clock::now();
    threadsUsed_ = resolveThreads(numShards());
    parallelFor(threadsUsed_, numShards(),
                [&](int s) { shards_[s]->step(epoch_cycles); });
    wallSeconds_ += std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start)
                        .count();
}

bool
FleetSystem::puDrained(int pu) const
{
    return shards_[puShard_[pu]]->puDrained(puLocal_[pu]);
}

BitBuffer
FleetSystem::jobOutput(int pu) const
{
    if (!puDrained(pu))
        throw StatusError(Status::make(
            StatusCode::InvalidState,
            "jobOutput: read before the slot's job drained"));
    return readOutput(pu,
                      shards_[puShard_[pu]]->flushedPayloadBits(
                          puLocal_[pu]));
}

RetiredJob
FleetSystem::retireJob(int pu)
{
    RetiredJob job = shards_[puShard_[pu]]->retireJob(puLocal_[pu]);
    std::tie(job.keptTokens, job.originalTokens) = truncation_[pu];
    markTruncated(pu, "job", job.jobId, job.outcome.status);
    return job;
}

Status
FleetSystem::cancelJob(int pu, Status status)
{
    if (!sessionMode_)
        return Status::make(StatusCode::InvalidState,
                            "cancelJob: system was built one-shot");
    if (pu < 0 || pu >= numPus())
        return Status::make(StatusCode::InvalidArgument,
                            "cancelJob: no such slot");
    if (!shards_[puShard_[pu]]->cancelPu(puLocal_[pu],
                                         std::move(status))) {
        std::ostringstream os;
        os << "cancelJob: slot " << pu
           << " holds no cancellable in-flight job";
        return Status::make(StatusCode::InvalidState, os.str());
    }
    return Status::make(StatusCode::Ok);
}

void
FleetSystem::forceHaltChannel(int c, Status status)
{
    if (c < 0 || c >= numShards())
        throw StatusError(Status::make(StatusCode::InvalidArgument,
                                       "forceHaltChannel: no such "
                                       "channel"));
    shards_[c]->forceHalt(std::move(status));
}

const RunReport &
FleetSystem::finishSession()
{
    if (!sessionMode_)
        throw StatusError(Status::make(
            StatusCode::InvalidState,
            "finishSession: system was built one-shot; use run()"));
    if (ran_)
        throw StatusError(Status::make(
            StatusCode::InvalidState, "finishSession() called twice"));
    beginSession();
    settle("job");
    return report_;
}

void
FleetSystem::setSessionTracks(std::vector<trace::CounterTrack> tracks)
{
    sessionTracks_ = std::move(tracks);
}

SystemStats
FleetSystem::stats() const
{
    SystemStats stats;
    stats.cycles = cycles_;
    stats.clockMHz = config_.clockMHz;
    stats.threadsUsed = threadsUsed_;
    stats.wallSeconds = wallSeconds_;
    // Cumulative across every job served (finalized per shard when the
    // run settles; zeros before it).
    for (const auto &shard : shards_) {
        stats.inputBytes += shard->stats().inputBytes;
        stats.outputBytes += shard->stats().outputBytes;
    }
    if (ran_)
        for (const auto &shard : shards_)
            stats.channels.push_back(shard->stats());
    return stats;
}

uint64_t
FleetSystem::sessionCycles() const
{
    uint64_t max_cycles = 0;
    for (const auto &shard : shards_)
        max_cycles = std::max(max_cycles, shard->cycles());
    return max_cycles;
}

} // namespace system
} // namespace fleet
