#include <gtest/gtest.h>

#include <memory>

#include "lang/builder.h"
#include "sim/simulator.h"
#include "system/pu_fast.h"
#include "system/pu_rtl.h"
#include "system/pu_rtl_batch.h"
#include "system/pu_testbench.h"
#include "test_programs.h"
#include "util/rng.h"

namespace fleet {
namespace {

using lang::Bram;
using lang::Program;
using lang::ProgramBuilder;
using lang::Value;
using lang::VecReg;
using lang::mux;
using system::FastPu;
using system::RtlBatch;
using system::RtlBatchLane;
using system::RtlPu;
using system::RtlTapeEngine;
using system::TestbenchOptions;
using system::TestbenchResult;
using system::runPu;

BitBuffer
randomStream(int token_width, int tokens, uint64_t seed)
{
    Rng rng(seed);
    BitBuffer buf;
    for (int i = 0; i < tokens; ++i)
        buf.appendBits(rng.next(), token_width);
    return buf;
}

/**
 * The core cross-check of the paper's testing infrastructure: the
 * functional simulator, the compiled-RTL engines (per-node
 * interpreter, and the batched SoA evaluator at one lane and at an
 * interior lane of three), and the fast replay model must produce
 * identical outputs, and every cycle model must agree on the exact
 * cycle count, under every stall profile.
 */
void
crossCheck(const Program &program, const BitBuffer &input)
{
    sim::FunctionalSimulator functional(program);
    sim::RunResult golden = functional.run(input);

    RtlPu rtl_pu(program);
    FastPu fast_pu(program, input);
    auto engine = std::make_shared<const RtlTapeEngine>(program);
    auto single = std::make_shared<RtlBatch>(engine, 1);
    RtlBatchLane single_pu(single, 0);
    // Exercise the batched engine at an interior lane so slot striding
    // (values[node][pu]) is actually tested, not just lane 0.
    auto batch = std::make_shared<RtlBatch>(engine, 3);
    RtlBatchLane batch_pu(batch, 1);

    const TestbenchOptions profiles[] = {
        {1.0, 1.0, 1, 1ULL << 28},   // no stalls
        {0.7, 1.0, 7, 1ULL << 28},   // input underruns
        {1.0, 0.6, 11, 1ULL << 28},  // output backpressure
        {0.5, 0.5, 13, 1ULL << 28},  // both
    };
    for (const auto &profile : profiles) {
        TestbenchResult rtl_result = runPu(rtl_pu, input, profile);
        TestbenchResult fast_result = runPu(fast_pu, input, profile);
        TestbenchResult single_result = runPu(single_pu, input, profile);
        TestbenchResult batch_result = runPu(batch_pu, input, profile);
        ASSERT_TRUE(rtl_result.output == golden.output)
            << program.name << ": RTL output mismatch (validProb="
            << profile.inputValidProb << ")";
        ASSERT_TRUE(fast_result.output == golden.output)
            << program.name << ": fast-model output mismatch";
        ASSERT_TRUE(single_result.output == golden.output)
            << program.name << ": one-lane batch output mismatch (validProb="
            << profile.inputValidProb << ")";
        ASSERT_TRUE(batch_result.output == golden.output)
            << program.name << ": batched-engine output mismatch "
            << "(validProb=" << profile.inputValidProb << ")";
        ASSERT_EQ(rtl_result.cycles, fast_result.cycles)
            << program.name << ": cycle-count mismatch between RTL and "
            << "fast model (validProb=" << profile.inputValidProb
            << ", readyProb=" << profile.outputReadyProb << ")";
        ASSERT_EQ(rtl_result.cycles, single_result.cycles)
            << program.name << ": cycle-count mismatch between "
            << "interpreter and one-lane batch";
        ASSERT_EQ(rtl_result.cycles, batch_result.cycles)
            << program.name << ": cycle-count mismatch between "
            << "interpreter and batched engine";
        ASSERT_EQ(rtl_result.inputTokens, single_result.inputTokens);
        ASSERT_EQ(rtl_result.outputTokens, single_result.outputTokens);
        ASSERT_EQ(rtl_result.inputTokens, batch_result.inputTokens);
        ASSERT_EQ(rtl_result.outputTokens, batch_result.outputTokens);
    }
}

TEST(CrossCheck, Identity)
{
    crossCheck(testprogs::identity(), randomStream(8, 500, 3));
}

TEST(CrossCheck, IdentityEmptyStream)
{
    crossCheck(testprogs::identity(), BitBuffer());
}

TEST(CrossCheck, StreamSum)
{
    crossCheck(testprogs::streamSum(), randomStream(8, 300, 4));
}

TEST(CrossCheck, Histogram)
{
    // Includes a while loop nested in an if, BRAM read+write at the same
    // address, and a cleanup-cycle emission.
    BitBuffer input;
    Rng rng(5);
    for (int i = 0; i < 64 * 3; ++i)
        input.appendBits(rng.nextBelow(8), 8);
    crossCheck(testprogs::blockFrequencies(64), input);
}

TEST(CrossCheck, DropAll)
{
    crossCheck(testprogs::dropAll(), randomStream(32, 200, 6));
}

TEST(CrossCheck, WhileCountdown)
{
    ProgramBuilder b("countdown", 8, 8);
    Value remaining = b.reg("remaining", 4, 0);
    b.while_(remaining != 0, [&] { b.assign(remaining, remaining - 1); });
    b.if_(!b.streamFinished(), [&] {
        b.assign(remaining, b.input().slice(3, 0));
        b.emit(b.input());
    });
    crossCheck(b.finish(), randomStream(8, 100, 7));
}

TEST(CrossCheck, EmitInsideWhile)
{
    // Emits inside a loop stress the output_valid / v_done interaction.
    ProgramBuilder b("burst", 8, 8);
    Value count = b.reg("count", 4, 0);
    b.while_(count != 0, [&] {
        b.emit(count.resize(8));
        b.assign(count, count - 1);
    });
    b.if_(!b.streamFinished(), [&] {
        b.assign(count, b.input().slice(2, 0).resize(4));
    });
    crossCheck(b.finish(), randomStream(8, 80, 8));
}

TEST(CrossCheck, BramForwarding)
{
    // Read-after-write of the same BRAM address in consecutive virtual
    // cycles exercises the forwarding registers.
    ProgramBuilder b("rmw", 8, 8);
    Bram m = b.bram("m", 16, 8);
    b.assign(m[b.input().slice(3, 0)], m[b.input().slice(3, 0)] + 1);
    b.emit(m[b.input().slice(3, 0)]);
    BitBuffer input;
    // Long runs of identical tokens force back-to-back same-address
    // read-modify-writes.
    for (int i = 0; i < 200; ++i)
        input.appendBits((i / 17) % 16, 8);
    crossCheck(b.finish(), input);
}

TEST(CrossCheck, VecRegRotate)
{
    ProgramBuilder b("rot", 8, 8);
    VecReg v = b.vreg("v", 8, 8);
    Value idx = b.reg("idx", 3, 0);
    b.assign(v[idx], b.input());
    b.assign(idx, idx + 1);
    b.emit(v[idx]);
    crossCheck(b.finish(), randomStream(8, 150, 9));
}

TEST(CrossCheck, ConditionalEmitWithBramCondition)
{
    // A BRAM read inside an if condition (allowed: it gates only
    // register updates and emits).
    ProgramBuilder b("filter", 8, 8);
    Bram table = b.bram("table", 256, 1);
    Value init = b.reg("init", 9, 0);
    // First 256 tokens program the table; the rest are filtered by it.
    b.if_(init < 256, [&] {
        b.assign(table[init.slice(7, 0)], b.input().slice(0, 0));
        b.assign(init, init + 1);
    }).elseIf(table[b.input()] == 1, [&] {
        b.emit(b.input());
    });
    BitBuffer input;
    Rng rng(10);
    for (int i = 0; i < 700; ++i)
        input.appendBits(rng.next(), 8);
    crossCheck(b.finish(), input);
}

TEST(CrossCheck, MultiWhileLoops)
{
    // Two while loops: loop virtual cycles run until BOTH conditions
    // are false.
    ProgramBuilder b("two_loops", 8, 8);
    Value a = b.reg("a", 4, 0);
    Value c = b.reg("c", 4, 0);
    b.while_(a != 0, [&] { b.assign(a, a - 1); });
    b.while_(c != 0, [&] { b.assign(c, c - 1); });
    b.if_(!b.streamFinished(), [&] {
        b.assign(a, b.input().slice(3, 0));
        b.assign(c, b.input().slice(7, 4));
        b.emit(b.input());
    });
    crossCheck(b.finish(), randomStream(8, 60, 12));
}

TEST(CrossCheck, SingleTokenStream)
{
    BitBuffer one;
    one.appendBits(0x5a, 8);
    crossCheck(testprogs::blockFrequencies(1), one);
}

TEST(CrossCheck, RtlThroughputIsOneVcyclePerCycle)
{
    // The paper's guarantee: one virtual cycle per real cycle in the
    // absence of stalls. For the identity unit, N tokens therefore take
    // N + (pipeline handshake) cycles.
    Program p = testprogs::identity();
    RtlPu pu(p);
    BitBuffer input = randomStream(8, 1000, 20);
    TestbenchResult r = runPu(pu, input);
    // 1000 token vcycles + 1 cleanup vcycle + 1 initial handshake cycle
    // + 1 final cycle to deassert v.
    EXPECT_LE(r.cycles, 1000u + 4u);
    EXPECT_GE(r.cycles, 1000u);
}

} // namespace
} // namespace fleet
