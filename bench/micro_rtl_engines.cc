/**
 * @file
 * Microbenchmark of the three RTL simulation engines on the six paper
 * applications: the per-node interpreter (rtl/sim.h), the PU-batched
 * structure-of-arrays evaluator over the compiled op tape
 * (rtl/tape.h, rtl/batch_sim.h), and the native JIT-compiled batch
 * (rtl/jit.h — the batch evaluator with the tape lowered to a compiled
 * shared object). Each engine is driven through the same port-level
 * stimulus — random tokens, always-valid input, always-ready output —
 * and its outputs are folded into a running hash, so the benchmark
 * doubles as an engine-equivalence check: all engines (and every batch
 * lane against its own one-lane replay) must produce the same hash or
 * the run fails.
 *
 * Reported speedups:
 *  - batch: per-PU speedup at `lanes` PUs per group, i.e.
 *           (interpreter time x lanes) / batched time — the ratio of
 *           simulating `lanes` units with the interpreter vs. one
 *           vectorized batch.
 *  - jit:   steady-state batch time / jit time (same lanes, compile
 *           time excluded), plus the compile cost itself and the
 *           amortization point: how many simulated cycles of the whole
 *           group the one-time native compile takes to pay back.
 *
 * Per-app JSON also records the circuit-optimizer pass statistics
 * (nodes before/after constant folding + DCE, dead nodes removed), so
 * optimizer regressions show up in the bench artifact, not just in
 * unit tests.
 *
 * Beside the RTL engines it measures the fast PU model's engine, the
 * functional simulator (sim/simulator.h): the flattened program's
 * expression nodes beside its evaluation plan's nodes, the time to
 * build that plan (best of kPlanBuilds), the plan's tabulated
 * (token-only) nodes and the time to build its token table alone (best
 * of kPlanBuilds, part of the plan build), and its throughput in
 * virtual cycles per second over the app's generated streams, timed as
 * FastPu::arm, the pre-run itself. That column is timed for every app
 * before any RTL engine runs, over kFuncStreams streams in kFuncReps
 * passes taken round-robin across the apps, and reports each app's
 * fastest and median pass (throughput from the median). Its output
 * on every stream must equal Application::golden or the run fails;
 * there is no speed gate on it.
 *
 * Modes:
 *  --smoke       short CI configuration; also *gates*: exits non-zero on
 *                any equivalence failure, and (in NDEBUG builds, where
 *                timing is meaningful) on batched per-PU speedup < 5x
 *                or jit speedup over batch < 1.5x — regression floors
 *                well under the measured minima (4-vCPU Xeon KVM
 *                guest, Release, smoke and full-length runs: batch
 *                10.7-24x per PU, DecisionTree lowest at 10.7-14.3x;
 *                jit 1.8-4.9x over batch) — so a performance
 *                regression fails the bench job the same way a
 *                correctness one does. The jit gate is skipped
 *                (loudly) when no host toolchain is available or
 *                FLEET_JIT_DISABLE is set.
 *  --json PATH   write per-app results as JSON.
 *  --lanes N     batch width (default 64, the paper's PUs-per-group
 *                order of magnitude).
 *  --cycles N    simulated cycles per engine (default 20000; smoke 3000).
 *
 * The functional streams are kFuncStreams per app of 16 KiB (smoke
 * 2 KiB).
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "apps/registry.h"
#include "compile/compiler.h"
#include "harness.h"
#include "lang/flatten.h"
#include "rtl/batch_sim.h"
#include "rtl/jit.h"
#include "rtl/sim.h"
#include "rtl/tape.h"
#include "sim/plan.h"
#include "sim/simulator.h"
#include "system/pu_backend.h"
#include "system/pu_fast.h"
#include "util/rng.h"
#include "util/table.h"

using namespace fleet;

namespace {

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** FNV-1a fold of one observed output tuple. */
inline uint64_t
fold(uint64_t h, uint64_t v)
{
    return (h ^ v) * 0x100000001b3ull;
}

struct Stimulus
{
    const compile::CompiledUnit &unit;
    int tokenWidth;
};

/**
 * Drive `cycles` cycles of seeded random stimulus through any engine
 * with the Simulator cycle contract, hashing the four output ports each
 * cycle (the batched engines have their own driver below).
 */
template <typename Sim>
uint64_t
drive(Sim &sim, const Stimulus &st, uint64_t seed, int cycles)
{
    Rng rng(seed);
    sim.reset();
    // The handshake inputs are loop-invariant; setting them once keeps
    // the timed loop measuring the engine, not the driver. (Input
    // slots are engine state: eval/step never overwrite them.)
    sim.setInput(st.unit.inInputValid, 1);
    sim.setInput(st.unit.inInputFinished, 0);
    sim.setInput(st.unit.inOutputReady, 1);
    uint64_t h = 0xcbf29ce484222325ull;
    for (int cycle = 0; cycle < cycles; ++cycle) {
        sim.setInput(st.unit.inInputToken,
                     rng.next() & mask64(st.tokenWidth));
        sim.evalComb();
        h = fold(h, sim.value(st.unit.outInputReady));
        h = fold(h, sim.value(st.unit.outOutputToken));
        h = fold(h, sim.value(st.unit.outOutputValid));
        h = fold(h, sim.value(st.unit.outOutputFinished));
        sim.step();
    }
    return h;
}

/** Same stimulus and hash, all lanes advancing through one evalAll()
 * and one step() per cycle; lane l replays the single-PU run with seed
 * base_seed + l. Returns the per-lane hashes. */
std::vector<uint64_t>
driveBatch(rtl::BatchSimulator &batch, const Stimulus &st,
           uint64_t base_seed, int cycles)
{
    const int lanes = batch.lanes();
    std::vector<Rng> rngs;
    for (int l = 0; l < lanes; ++l)
        rngs.emplace_back(base_seed + l);
    batch.reset();
    // Loop-invariant handshake inputs, set once per lane (see drive()).
    for (int l = 0; l < lanes; ++l) {
        batch.setInput(l, st.unit.inInputValid, 1);
        batch.setInput(l, st.unit.inInputFinished, 0);
        batch.setInput(l, st.unit.inOutputReady, 1);
    }
    // Hoisted node-to-slot lookups for the per-cycle output reads: with
    // 4 ports x many lanes each cycle, the lookup would otherwise be a
    // measurable slice of the timed loop (it is driver work, identical
    // for the interpreted and jit batch).
    const auto &tp = batch.tape();
    const int32_t s_ready = tp.slotOf(st.unit.outInputReady);
    const int32_t s_token = tp.slotOf(st.unit.outOutputToken);
    const int32_t s_valid = tp.slotOf(st.unit.outOutputValid);
    const int32_t s_fin = tp.slotOf(st.unit.outOutputFinished);
    std::vector<uint64_t> h(lanes, 0xcbf29ce484222325ull);
    for (int cycle = 0; cycle < cycles; ++cycle) {
        for (int l = 0; l < lanes; ++l)
            batch.setInput(l, st.unit.inInputToken,
                           rngs[l].next() & mask64(st.tokenWidth));
        batch.evalAll();
        for (int l = 0; l < lanes; ++l) {
            h[l] = fold(h[l], batch.valueAtSlot(l, s_ready));
            h[l] = fold(h[l], batch.valueAtSlot(l, s_token));
            h[l] = fold(h[l], batch.valueAtSlot(l, s_valid));
            h[l] = fold(h[l], batch.valueAtSlot(l, s_fin));
        }
        batch.step();
    }
    return h;
}

struct AppResult
{
    std::string name;
    uint64_t circuitNodes = 0;
    uint64_t tapeOps = 0;
    uint64_t nodesEliminated = 0;
    // Circuit-optimizer pass statistics (rtl/opt.h, carried on the
    // tape): node counts before and after constant folding + DCE.
    uint64_t optSourceNodes = 0;
    uint64_t optResultNodes = 0;
    uint64_t optDeadNodes = 0;
    int lanes = 0;
    int cycles = 0;
    double interpS = 0;
    double batchS = 0;
    double batchPerPuSpeedup = 0;
    // Native JIT batch (absent when the toolchain is unavailable).
    bool jitAvailable = false;
    bool jitFromDiskCache = false;
    double jitS = 0;
    double jitCompileS = 0;
    double jitOverBatchSpeedup = 0;
    double jitPerPuSpeedup = 0;
    // Simulated group-cycles after which the one-time native compile
    // has paid for itself vs. running the interpreted batch
    // (compile_s / per-cycle savings); 0 when the jit is not faster.
    double jitAmortCycles = 0;
    std::string jitStatus; // why unavailable, for the JSON artifact
    bool equivalent = false;
    // Functional simulator: distinct expression nodes of the flattened
    // program, plan nodes, the plan's build time, its tabulated nodes
    // and token-table build time, throughput, and the golden-output
    // check.
    uint64_t funcSourceNodes = 0;
    uint64_t funcPlanNodes = 0;
    double funcPlanBuildUs = 0;
    uint64_t funcTabulatedNodes = 0;
    double funcTableBuildUs = 0;
    uint64_t funcVcycles = 0;
    double funcS = 0;       ///< Fastest pass.
    double funcMedianS = 0; ///< Median pass.
    double funcMvcyclesPerS = 0;
    bool funcGolden = false;
};

/** Distinct expression nodes reachable from the flattened program's
 * roots: the program's size as the compiler sees it, before the plan
 * lowers its statement tree, folds and hash-conses. */
uint64_t
flatExprNodes(const lang::Program &program)
{
    const lang::FlatProgram flat = lang::flatten(program);
    std::unordered_set<const lang::ExprNode *> seen;
    std::vector<const lang::ExprNode *> stack;
    auto visit = [&](const lang::Expr &e) {
        if (e && seen.insert(e.get()).second)
            stack.push_back(e.get());
    };
    for (const auto &cond : flat.whileConds)
        visit(cond);
    for (const auto &occ : flat.bramReads) {
        visit(occ.cond);
        visit(occ.addr);
    }
    for (const auto &assign : flat.assigns) {
        visit(assign.cond);
        visit(assign.target.index);
        visit(assign.value);
    }
    for (const auto &emit : flat.emits) {
        visit(emit.cond);
        visit(emit.value);
    }
    while (!stack.empty()) {
        const lang::ExprNode *node = stack.back();
        stack.pop_back();
        visit(node->a);
        visit(node->b);
        visit(node->c);
    }
    return seen.size();
}

/** Plan builds timed per app; the best is reported. */
constexpr int kPlanBuilds = 50;
/** Functional streams per app and timed passes over them. The median
 * pass is the stable figure; the fastest varies with host load. */
constexpr int kFuncStreams = 32;
constexpr int kFuncReps = 11;

/** One app's functional-simulator workload: the plan FleetSystem
 * builds, the generated streams, and each timed pass over them. */
struct FunctionalRun
{
    lang::Program program;
    std::shared_ptr<const sim::EvalPlan> plan;
    std::vector<BitBuffer> streams;
    std::vector<double> passes;
};

/** Fill the untimed functional fields of `r` (sizes, plan and table
 * build times, every stream checked against the app's golden output)
 * and return the app's workload. */
FunctionalRun
prepareFunctional(const apps::Application &app, uint64_t stream_bytes,
                  AppResult &r)
{
    FunctionalRun run;
    run.program = app.program();
    Rng stream_rng(42);
    for (int s = 0; s < kFuncStreams; ++s)
        run.streams.push_back(app.generateStream(stream_rng, stream_bytes));
    r.funcSourceNodes = flatExprNodes(run.program);
    // Built as FleetSystem builds it, from a copy of the program.
    double best = 1e300;
    for (int i = 0; i < kPlanBuilds; ++i) {
        const double t0 = now();
        auto built = std::make_shared<const sim::EvalPlan>(run.program);
        best = std::min(best, now() - t0);
    }
    r.funcPlanBuildUs = best * 1e6;
    run.plan = std::make_shared<const sim::EvalPlan>(run.program);
    r.funcPlanNodes = run.plan->size();
    r.funcTabulatedNodes = uint64_t(std::count(
        run.plan->tokenOnly.begin(), run.plan->tokenOnly.end(), 1));
    best = 1e300;
    for (int i = 0; i < kPlanBuilds; ++i) {
        const double t0 = now();
        const sim::EvalPlan::TokenTable table = sim::tabulate(*run.plan);
        best = std::min(best, now() - t0);
    }
    r.funcTableBuildUs = best * 1e6;
    r.funcGolden = true;
    for (const BitBuffer &stream : run.streams) {
        system::FastPu unit(run.program, run.plan);
        r.funcGolden = r.funcGolden && unit.arm(stream).ok() &&
                       unit.functionalResult().output == app.golden(stream);
    }
    return run;
}

/** Time one pass over `run`'s streams, a fresh unit per stream as a
 * one-shot FleetSystem arms them. */
void
timeFunctionalPass(FunctionalRun &run, AppResult &r)
{
    uint64_t vcycles = 0;
    const double t0 = now();
    for (const BitBuffer &stream : run.streams) {
        system::FastPu unit(run.program, run.plan);
        unit.arm(stream);
        vcycles += unit.functionalResult().vcycles;
    }
    run.passes.push_back(now() - t0);
    r.funcVcycles = vcycles;
}

/** Fill `r`'s functional timings from the fastest and median pass.
 * Throughput is taken from the median: on a shared host the fastest
 * pass depends on whether the process met a quiet stretch. */
void
summarizeFunctional(std::vector<double> passes, AppResult &r)
{
    std::sort(passes.begin(), passes.end());
    r.funcS = passes.front();
    r.funcMedianS = passes[passes.size() / 2];
    r.funcMvcyclesPerS =
        r.funcMedianS > 0 ? double(r.funcVcycles) / r.funcMedianS / 1e6
                          : 0;
}

/** Fill the RTL-engine fields of `r`. */
void
evaluateEngines(const apps::Application &app, int lanes, int cycles,
                uint64_t seed, AppResult &r)
{
    r.lanes = lanes;
    r.cycles = cycles;

    lang::Program program = app.program();
    auto unit = compile::compileProgram(program);
    Stimulus st{unit, program.inputTokenWidth};
    r.circuitNodes = unit.circuit.nodes().size();

    auto tape_program = std::make_shared<const rtl::TapeProgram>(
        rtl::TapeProgram::compile(unit.circuit));
    r.tapeOps = tape_program->ops.size();
    r.nodesEliminated = tape_program->nodesEliminated;
    r.optSourceNodes = tape_program->optSourceNodes;
    r.optResultNodes = tape_program->optResultNodes;
    r.optDeadNodes = tape_program->optDeadNodes;

    // Native JIT compile (timed separately from steady-state eval).
    rtl::JitOptions jopts;
    jopts.lanes = lanes;
    Status jit_status;
    double c0 = now();
    auto jit = rtl::JitProgram::compile(*tape_program, jopts,
                                        &jit_status);
    double c1 = now();
    r.jitAvailable = jit != nullptr;
    if (jit) {
        r.jitCompileS = c1 - c0;
        r.jitFromDiskCache = jit->fromDiskCache();
    } else {
        r.jitStatus = jit_status.toString();
    }

    // Engine equivalence first (untimed): the interpreter and batch
    // lane 0 replay seed `seed`; every other batch lane l must match a
    // one-lane batch replaying seed `seed + l`. The jit batch must match
    // the interpreted batch lane-for-lane.
    rtl::Simulator interp(unit.circuit);
    rtl::BatchSimulator batch(tape_program, lanes);
    const int check_cycles = std::min(cycles, 2000);
    uint64_t h_interp = drive(interp, st, seed, check_cycles);
    auto h_lanes = driveBatch(batch, st, seed, check_cycles);
    r.equivalent = h_lanes[0] == h_interp;
    for (int l = 1; l < lanes && r.equivalent; ++l) {
        rtl::BatchSimulator replay(tape_program, 1);
        r.equivalent =
            h_lanes[l] == driveBatch(replay, st, seed + l, check_cycles)[0];
    }
    rtl::BatchSimulator jbatch(tape_program, lanes);
    if (jit) {
        jbatch.attachJit(jit);
        auto h_jit = driveBatch(jbatch, st, seed, check_cycles);
        r.equivalent = r.equivalent && h_jit == h_lanes;
    }

    // Timed runs, identical stimulus volume per engine per PU. Each
    // engine takes the best of kReps passes: the per-app runs are
    // short (down to sub-millisecond for the smallest circuits), so a
    // single pass on a busy host can be 30%+ off and flap the speedup
    // gates; the minimum is the standard noise-robust estimator for
    // deterministic CPU-bound work.
    constexpr int kReps = 3;
    uint64_t sink = 0;
    auto bestOf = [&](auto &&run) {
        double best = 1e300;
        for (int rep = 0; rep < kReps; ++rep) {
            double t0 = now();
            sink = fold(sink, run());
            best = std::min(best, now() - t0);
        }
        return best;
    };
    r.interpS = bestOf([&] { return drive(interp, st, seed, cycles); });
    r.batchS = bestOf(
        [&] { return driveBatch(batch, st, seed, cycles)[lanes - 1]; });
    if (jit)
        r.jitS = bestOf([&] {
            return driveBatch(jbatch, st, seed, cycles)[lanes - 1];
        });
    if (sink == 0) // Keep the measured work observable.
        std::printf("(hash sink collision)\n");

    r.batchPerPuSpeedup =
        r.batchS > 0 ? r.interpS * lanes / r.batchS : 0;
    if (jit) {
        r.jitOverBatchSpeedup = r.jitS > 0 ? r.batchS / r.jitS : 0;
        r.jitPerPuSpeedup = r.jitS > 0 ? r.interpS * lanes / r.jitS : 0;
        double savings_per_cycle = (r.batchS - r.jitS) / cycles;
        r.jitAmortCycles = savings_per_cycle > 0
                               ? r.jitCompileS / savings_per_cycle
                               : 0;
    }
}

std::string
resultsJson(const std::vector<AppResult> &results, bool smoke)
{
    json::Writer w;
    w.object();
    // Single-PU engine microbench: host threading does not apply, and
    // the "backend" axis *is* the result rows (interp vs batch vs jit).
    bench::runMetadata(w, "micro_rtl_engines", "rtl-engines", -1);
    w.field("smoke", smoke);
    // Engine names in row order (interp / batch / jit columns below):
    // the per-node interpreter is rtl::Simulator driven directly, not a
    // PuBackend; the other two are the shared registry's names.
    w.array("engines", true);
    w.element("rtlinterp");
    for (auto engine : {system::PuBackend::Rtl, system::PuBackend::RtlJit})
        w.element(system::puBackendName(engine));
    w.end();
    w.array("apps");
    for (const AppResult &r : results) {
        w.object();
        w.field("app", r.name);
        w.field("circuit_nodes", r.circuitNodes);
        w.field("tape_ops", r.tapeOps);
        w.field("nodes_eliminated", r.nodesEliminated);
        w.field("opt_source_nodes", r.optSourceNodes);
        w.field("opt_result_nodes", r.optResultNodes);
        w.field("opt_dead_nodes", r.optDeadNodes);
        w.field("lanes", r.lanes);
        w.field("cycles", r.cycles);
        w.field("interp_s", r.interpS, 6);
        w.field("batch_s", r.batchS, 6);
        w.field("batch_per_pu_speedup", r.batchPerPuSpeedup, 3);
        w.field("jit_available", r.jitAvailable);
        if (r.jitAvailable) {
            w.field("jit_s", r.jitS, 6);
            w.field("jit_compile_s", r.jitCompileS, 6);
            w.field("jit_from_disk_cache", r.jitFromDiskCache);
            w.field("jit_over_batch_speedup", r.jitOverBatchSpeedup, 3);
            w.field("jit_per_pu_speedup", r.jitPerPuSpeedup, 3);
            w.field("jit_amort_cycles", r.jitAmortCycles, 0);
        } else {
            w.field("jit_status", r.jitStatus);
        }
        w.field("equivalent", r.equivalent);
        w.field("functional_source_nodes", r.funcSourceNodes);
        w.field("functional_plan_nodes", r.funcPlanNodes);
        w.field("functional_plan_build_us", r.funcPlanBuildUs, 2);
        w.field("functional_tabulated_nodes", r.funcTabulatedNodes);
        w.field("functional_table_build_us", r.funcTableBuildUs, 2);
        w.field("functional_vcycles", r.funcVcycles);
        w.field("functional_s", r.funcS, 6);
        w.field("functional_median_s", r.funcMedianS, 6);
        w.field("functional_mvcycles_per_s", r.funcMvcyclesPerS, 3);
        w.field("functional_golden", r.funcGolden);
        w.end();
    }
    w.end().end();
    return w.str();
}

} // namespace

int
main(int argc, char **argv)
{
    bench::CommonFlags opts;
    int lanes = 64;
    int cycles = 0; // 0 = the mode's default
    if (!bench::parseFlags(argc, argv,
                           {bench::smokeFlag(opts), bench::jsonFlag(opts),
                            bench::flag("--lanes", "N", &lanes, 1),
                            bench::flag("--cycles", "N", &cycles, 1)}))
        return 2;
    const bool smoke = opts.smoke;
    if (cycles == 0)
        cycles = smoke ? 3000 : 20000;

    std::printf("\n==== RTL engines: interpreter vs batched vs jit "
                "(x%d) ====\n"
                "Same stimulus per engine; outputs hashed for "
                "equivalence.\n\n",
                lanes);

    std::vector<AppResult> results;
    Table table({"App", "nodes", "tape ops", "elim", "interp (s)",
                 "batch (s)", "jit (s)", "batch x/PU", "jit/batch",
                 "compile (ms)", "amort (cyc)", "equiv"});
    Table functional({"App", "expr nodes", "plan nodes", "build (us)",
                      "tabulated", "table (us)", "vcycles", "min (s)",
                      "median (s)", "Mvcycles/s", "golden"});
    bool all_equivalent = true;
    bool all_golden = true;
    bool jit_everywhere = true;
    double min_batch = 1e300, min_jit = 1e300;
    int jit_apps = 0, jit_fast_apps = 0;
    const auto applications = apps::allApplications();
    // The functional column first, so no RTL engine has run in the
    // process before it is timed. The passes go round-robin over the
    // apps, so a slow stretch of a shared host is spread across apps
    // instead of landing on one.
    std::vector<FunctionalRun> runs;
    for (auto &app : applications) {
        AppResult r;
        r.name = app->name();
        runs.push_back(prepareFunctional(*app, smoke ? 2048 : 16384, r));
        results.push_back(std::move(r));
    }
    for (int rep = 0; rep < kFuncReps; ++rep)
        for (size_t a = 0; a < runs.size(); ++a)
            timeFunctionalPass(runs[a], results[a]);
    for (size_t a = 0; a < runs.size(); ++a)
        summarizeFunctional(std::move(runs[a].passes), results[a]);
    runs.clear();
    for (size_t a = 0; a < applications.size(); ++a) {
        AppResult &r = results[a];
        evaluateEngines(*applications[a], lanes, cycles, 42, r);
        all_equivalent = all_equivalent && r.equivalent;
        all_golden = all_golden && r.funcGolden;
        jit_everywhere = jit_everywhere && r.jitAvailable;
        min_batch = std::min(min_batch, r.batchPerPuSpeedup);
        if (r.jitAvailable) {
            min_jit = std::min(min_jit, r.jitOverBatchSpeedup);
            ++jit_apps;
            if (r.jitOverBatchSpeedup >= 1.5)
                ++jit_fast_apps;
        }
        char ti[32], tb[32], tj[32], sb[32], sj[32], cm[32], am[32];
        std::snprintf(ti, sizeof(ti), "%.3f", r.interpS);
        std::snprintf(tb, sizeof(tb), "%.3f", r.batchS);
        std::snprintf(sb, sizeof(sb), "%.1fx", r.batchPerPuSpeedup);
        if (r.jitAvailable) {
            std::snprintf(tj, sizeof(tj), "%.3f", r.jitS);
            std::snprintf(sj, sizeof(sj), "%.1fx",
                          r.jitOverBatchSpeedup);
            std::snprintf(cm, sizeof(cm), "%.0f%s",
                          r.jitCompileS * 1e3,
                          r.jitFromDiskCache ? "*" : "");
            std::snprintf(am, sizeof(am), "%.0f", r.jitAmortCycles);
        } else {
            std::snprintf(tj, sizeof(tj), "n/a");
            std::snprintf(sj, sizeof(sj), "n/a");
            std::snprintf(cm, sizeof(cm), "n/a");
            std::snprintf(am, sizeof(am), "n/a");
        }
        table.row()
            .cell(r.name)
            .cell(std::to_string(r.circuitNodes))
            .cell(std::to_string(r.tapeOps))
            .cell(std::to_string(r.nodesEliminated))
            .cell(ti)
            .cell(tb)
            .cell(tj)
            .cell(sb)
            .cell(sj)
            .cell(cm)
            .cell(am)
            .cell(r.equivalent ? "yes" : "NO");
        char tp[32], tt[32], tf[32], tm[32], mf[32];
        std::snprintf(tp, sizeof(tp), "%.1f", r.funcPlanBuildUs);
        std::snprintf(tt, sizeof(tt), "%.1f", r.funcTableBuildUs);
        std::snprintf(tf, sizeof(tf), "%.4f", r.funcS);
        std::snprintf(tm, sizeof(tm), "%.4f", r.funcMedianS);
        std::snprintf(mf, sizeof(mf), "%.2f", r.funcMvcyclesPerS);
        functional.row()
            .cell(r.name)
            .cell(std::to_string(r.funcSourceNodes))
            .cell(std::to_string(r.funcPlanNodes))
            .cell(tp)
            .cell(std::to_string(r.funcTabulatedNodes))
            .cell(tt)
            .cell(std::to_string(r.funcVcycles))
            .cell(tf)
            .cell(tm)
            .cell(mf)
            .cell(r.funcGolden ? "yes" : "NO");
        std::fflush(stdout);
    }
    std::printf("%s", table.str().c_str());
    std::printf("(compile * = reused from the on-disk jit cache; amort "
                "= group-cycles for the native compile to pay back vs "
                "the interpreted batch)\n\n");
    std::printf("Functional simulator (fast PU model engine), %d "
                "generated streams per app, trace on, %d passes "
                "(Mvcycles/s of the median):\n%s\n",
                kFuncStreams, kFuncReps, functional.str().c_str());
    if (!jit_everywhere) {
        const AppResult *why = nullptr;
        for (const AppResult &r : results)
            if (!r.jitAvailable)
                why = &r;
        std::printf("NOTE: rtl-jit unavailable on this host (%s); jit "
                    "column and gate skipped, runtime falls back to "
                    "the interpreted batch (rtl).\n\n",
                    why ? why->jitStatus.c_str() : "unknown");
    }

    if (!opts.jsonPath.empty() &&
        !bench::writeFile(opts.jsonPath, resultsJson(results, smoke)))
        return 1;

    if (!all_equivalent) {
        std::fprintf(stderr,
                     "FAIL: engine outputs diverged (see table)\n");
        return 1;
    }
    if (!all_golden) {
        std::fprintf(stderr, "FAIL: functional simulator output differs "
                             "from the golden model (see table)\n");
        return 1;
    }
    if (smoke) {
#ifdef NDEBUG
        // Regression floors, set well under the measured minima across
        // the six apps (batch 10.7-24x per PU at 64 lanes on a 4-vCPU
        // KVM guest; see the file comment). They catch a
        // real engine regression — e.g. losing vectorization or the
        // 32-bit lane path — without flaking on machine-to-machine
        // timing variance.
        if (min_batch < 5.0) {
            std::fprintf(stderr,
                         "FAIL: batched per-PU speedup regressed below "
                         "5x (min %.2fx)\n",
                         min_batch);
            return 1;
        }
        // The jit target is >= 2x over the interpreted batch on at
        // least 4 of the 6 apps; the gate asserts the same shape with
        // headroom (>= 1.5x on 4+ apps). A min-over-apps gate would be
        // meaningless: the smallest register-dominated circuits (Regex:
        // 52 ops, nearly all feeding register nexts) are store-bound in
        // any engine — there is nothing for dead-store elision to
        // elide — so their jit/batch ratio sits near 1x by construction.
        if (jit_everywhere && jit_fast_apps < std::min(jit_apps, 4)) {
            std::fprintf(stderr,
                         "FAIL: jit >= 1.5x over the interpreted batch "
                         "on only %d/%d apps (need 4; min %.2fx)\n",
                         jit_fast_apps, jit_apps, min_jit);
            return 1;
        }
        if (jit_everywhere)
            std::printf("gates passed: batch >= 5x per PU (min %.1fx), "
                        "jit >= 1.5x over batch on %d/%d apps (min "
                        "%.1fx)\n",
                        min_batch, jit_fast_apps, jit_apps, min_jit);
        else
            std::printf("gates passed: batch >= 5x per PU (min %.1fx); "
                        "JIT GATE SKIPPED (toolchain unavailable)\n",
                        min_batch);
#else
        std::printf("speedup gates skipped (debug build; timing not "
                    "meaningful)\n");
#endif
    }
    return 0;
}
