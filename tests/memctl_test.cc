#include <gtest/gtest.h>

#include "dram/dram.h"
#include "memctl/bitfifo.h"
#include "memctl/input_controller.h"
#include "memctl/output_controller.h"
#include "util/logging.h"
#include "util/rng.h"

namespace fleet {
namespace memctl {
namespace {

// ---------------------------------------------------------------------------
// BitFifo
// ---------------------------------------------------------------------------

TEST(BitFifo, PushPopBasics)
{
    BitFifo fifo(64);
    EXPECT_TRUE(fifo.empty());
    fifo.push(0xab, 8);
    fifo.push(0xcd, 8);
    EXPECT_EQ(fifo.sizeBits(), 16u);
    EXPECT_EQ(fifo.freeBits(), 48u);
    EXPECT_EQ(fifo.peek(8), 0xabu);
    EXPECT_EQ(fifo.pop(8), 0xabu);
    EXPECT_EQ(fifo.pop(8), 0xcdu);
    EXPECT_TRUE(fifo.empty());
}

TEST(BitFifo, OverflowUnderflowPanic)
{
    BitFifo fifo(16);
    fifo.push(0xffff, 16);
    EXPECT_THROW(fifo.push(1, 1), PanicError);
    fifo.pop(16);
    EXPECT_THROW(fifo.pop(1), PanicError);
}

TEST(BitFifo, WrapAroundPreservesOrder)
{
    BitFifo fifo(100);
    Rng rng(3);
    std::vector<std::pair<uint64_t, int>> inflight;
    uint64_t pushed = 0, popped = 0;
    for (int step = 0; step < 10000; ++step) {
        if (rng.nextChance(1, 2)) {
            int width = 1 + static_cast<int>(rng.nextBelow(33));
            if (fifo.freeBits() >= uint64_t(width)) {
                uint64_t value = rng.next() & mask64(width);
                fifo.push(value, width);
                inflight.emplace_back(value, width);
                ++pushed;
            }
        } else if (!inflight.empty()) {
            auto [value, width] = inflight.front();
            if (fifo.sizeBits() >= uint64_t(width)) {
                ASSERT_EQ(fifo.pop(width), value) << "at step " << step;
                inflight.erase(inflight.begin());
                ++popped;
            }
        }
    }
    EXPECT_GT(pushed, 1000u);
    EXPECT_GT(popped, 1000u);
}

TEST(BitFifo, MisalignedWidthsAcrossWrap)
{
    BitFifo fifo(130); // not a multiple of common widths
    for (int round = 0; round < 50; ++round) {
        fifo.push(round & 0x7f, 7);
        fifo.push(round & 0x1ff, 9);
        EXPECT_EQ(fifo.pop(7), uint64_t(round & 0x7f));
        EXPECT_EQ(fifo.pop(9), uint64_t(round & 0x1ff));
    }
}

// ---------------------------------------------------------------------------
// Input controller
// ---------------------------------------------------------------------------

dram::DramParams
fastDram()
{
    dram::DramParams params;
    params.readLatency = 8;
    params.perRequestOverhead = 0.0;
    params.refreshDuration = 0;
    return params;
}

/** Fill channel memory regions with a counting byte pattern. */
void
fillPattern(dram::ChannelMemory &mem, const StreamRegion &region)
{
    for (uint64_t i = 0; i < ceilDiv(region.streamBits, 8); ++i)
        mem[region.baseAddr + i] = uint8_t((region.baseAddr + i) * 7 + 1);
}

TEST(InputController, DeliversExactStreamBits)
{
    dram::DramChannel ch(fastDram(), 1 << 20);
    ControllerParams params;
    params.burstBits = 1024;
    params.portWidth = 32;
    params.numBurstRegs = 4;

    // Three PUs with different stream sizes, including a non-burst-aligned
    // tail and an empty stream.
    std::vector<StreamRegion> regions = {
        {0, 2048, 2048 * 8},   // exactly 16 bursts... 2048B = 16 bursts
        {2048, 1024, 1000 * 8}, // partial tail burst
        {3072, 1024, 0},        // empty stream
    };
    for (const auto &region : regions)
        fillPattern(ch.memory(), region);

    InputController ctrl(ch, params, regions);
    EXPECT_TRUE(ctrl.streamExhausted(2)); // empty stream from the start

    std::vector<std::vector<uint8_t>> received(3);
    for (int cycle = 0; cycle < 20000 && !ctrl.done(); ++cycle) {
        // PUs consume 8 bits per cycle when available.
        for (int p = 0; p < 3; ++p) {
            if (ctrl.buffer(p).sizeBits() >= 8)
                received[p].push_back(uint8_t(ctrl.buffer(p).pop(8)));
        }
        ctrl.tick();
        ch.tick();
    }
    // Drain leftovers.
    for (int p = 0; p < 3; ++p)
        while (ctrl.buffer(p).sizeBits() >= 8)
            received[p].push_back(uint8_t(ctrl.buffer(p).pop(8)));

    EXPECT_TRUE(ctrl.done());
    ASSERT_EQ(received[0].size(), 2048u);
    ASSERT_EQ(received[1].size(), 1000u);
    ASSERT_EQ(received[2].size(), 0u);
    for (int p = 0; p < 2; ++p) {
        for (size_t i = 0; i < received[p].size(); ++i) {
            ASSERT_EQ(received[p][i],
                      uint8_t((regions[p].baseAddr + i) * 7 + 1))
                << "pu " << p << " byte " << i;
        }
        EXPECT_TRUE(ctrl.streamExhausted(p));
    }
}

TEST(InputController, RoundRobinServesAllPusFairly)
{
    dram::DramChannel ch(fastDram(), 1 << 20);
    ControllerParams params;
    params.numBurstRegs = 16;
    const int pus = 8;
    std::vector<StreamRegion> regions;
    for (int p = 0; p < pus; ++p)
        regions.push_back({uint64_t(p) * 4096, 4096, 4096 * 8});
    InputController ctrl(ch, params, regions);

    std::vector<uint64_t> consumed(pus, 0);
    for (int cycle = 0; cycle < 3000; ++cycle) {
        for (int p = 0; p < pus; ++p) {
            if (ctrl.buffer(p).sizeBits() >= 32) {
                ctrl.buffer(p).pop(32);
                consumed[p] += 32;
            }
        }
        ctrl.tick();
        ch.tick();
    }
    uint64_t min_c = ~0ull, max_c = 0;
    for (int p = 0; p < pus; ++p) {
        min_c = std::min(min_c, consumed[p]);
        max_c = std::max(max_c, consumed[p]);
    }
    EXPECT_GT(min_c, 0u);
    // Fair service: no PU more than one burst ahead of another.
    EXPECT_LE(max_c - min_c, 2048u);
}

TEST(InputController, SyncAddressingMuchSlower)
{
    auto measure = [](bool async_supply) {
        dram::DramParams dparams;
        dparams.readLatency = 62;
        dparams.perRequestOverhead = 0.22;
        dparams.refreshDuration = 55;
        dram::DramChannel ch(dparams, 4 << 20);
        ControllerParams params;
        params.asyncAddressSupply = async_supply;
        params.numBurstRegs = async_supply ? 16 : 1;
        const int pus = 16;
        std::vector<StreamRegion> regions;
        for (int p = 0; p < pus; ++p)
            regions.push_back({uint64_t(p) * 65536, 65536, 65536 * 8});
        InputController ctrl(ch, params, regions);
        const int cycles = 20000;
        for (int cycle = 0; cycle < cycles; ++cycle) {
            for (int p = 0; p < pus; ++p) {
                // Consume eagerly (drop-all probe).
                auto &buf = ctrl.buffer(p);
                if (buf.sizeBits() >= 32)
                    buf.pop(32);
            }
            ctrl.tick();
            ch.tick();
        }
        return double(ctrl.bitsDelivered()) / cycles; // bits per cycle
    };
    double sync_bpc = measure(false);
    double async_bpc = measure(true);
    // Figure 9's first gap: asynchronous supply + burst registers is an
    // order of magnitude faster than fully synchronous operation.
    EXPECT_GT(async_bpc / sync_bpc, 8.0);
}

// ---------------------------------------------------------------------------
// Output controller
// ---------------------------------------------------------------------------

TEST(OutputController, CollectsAndFlushesAllOutput)
{
    dram::DramChannel ch(fastDram(), 1 << 20);
    ControllerParams params;
    params.blockingAddressing = false;
    const int pus = 3;
    std::vector<StreamRegion> regions = {
        {0, 8192, 0}, {8192, 8192, 0}, {16384, 8192, 0}};
    OutputController ctrl(ch, params, regions);

    // PU p emits (1000 + 700*p) bytes of a counting pattern, at
    // different rates.
    std::vector<uint64_t> total = {1000, 1700, 2400};
    std::vector<uint64_t> emitted(pus, 0);
    Rng rng(9);
    bool all_done = false;
    for (int cycle = 0; cycle < 100000 && !all_done; ++cycle) {
        for (int p = 0; p < pus; ++p) {
            if (emitted[p] < total[p] && ctrl.buffer(p).freeBits() >= 8 &&
                rng.nextChance(1, p + 1)) {
                ctrl.push(p, uint8_t(emitted[p] * 3 + p), 8);
                if (++emitted[p] == total[p])
                    ctrl.setPuFinished(p);
            }
        }
        ctrl.tick();
        ch.tick();
        all_done = ctrl.done();
        for (int p = 0; p < pus; ++p)
            all_done = all_done && emitted[p] == total[p];
    }
    ASSERT_TRUE(all_done);
    for (int p = 0; p < pus; ++p) {
        EXPECT_EQ(ctrl.payloadBits(p), total[p] * 8);
        for (uint64_t i = 0; i < total[p]; ++i) {
            ASSERT_EQ(ch.memory()[regions[p].baseAddr + i],
                      uint8_t(i * 3 + p))
                << "pu " << p << " byte " << i;
        }
    }
}

TEST(OutputController, NonDividingTokenWidthNeedsNoDoubleBuffer)
{
    // Regression for the bufferBursts = 1 wedge: with 12-bit tokens and
    // 1024-bit bursts (1024 % 12 = 4), an exactly-one-burst buffer fills
    // to 1020 bits — too full to accept another token, not full enough
    // for the addressing unit to issue — and the system deadlocks. The
    // tokenBits skid (one token minus one bit of extra capacity) is the
    // fix; doubling the buffer is not required.
    const int kTokenBits = 12;
    const uint64_t kTokens = 400;

    auto run = [&](int token_bits_param) {
        dram::DramChannel ch(fastDram(), 1 << 20);
        ControllerParams params;
        params.blockingAddressing = false;
        params.bufferBursts = 1;
        params.tokenBits = token_bits_param;
        std::vector<StreamRegion> regions = {{0, 8192, 0}};
        OutputController ctrl(ch, params, regions);

        uint64_t emitted = 0;
        bool done = false;
        for (int cycle = 0; cycle < 30000 && !done; ++cycle) {
            if (emitted < kTokens &&
                ctrl.buffer(0).freeBits() >= kTokenBits) {
                ctrl.push(0, (emitted * 5 + 3) & mask64(kTokenBits),
                          kTokenBits);
                if (++emitted == kTokens)
                    ctrl.setPuFinished(0);
            }
            ctrl.tick();
            ch.tick();
            done = ctrl.done() && emitted == kTokens;
        }
        // Memory copied out.
        return std::make_pair(done, std::vector<uint8_t>(
                                        ch.memory().begin(),
                                        ch.memory().end()));
    };

    // Without the skid the controller wedges (this is the bug)...
    auto [wedged_done, wedged_mem] = run(0);
    EXPECT_FALSE(wedged_done);

    // ... and with it every token flushes to memory, bit-exact.
    auto [done, mem] = run(kTokenBits);
    ASSERT_TRUE(done);
    for (uint64_t t = 0; t < kTokens; ++t) {
        uint64_t expect = (t * 5 + 3) & mask64(kTokenBits);
        uint64_t got = 0;
        for (int bit = 0; bit < kTokenBits; ++bit) {
            uint64_t i = t * kTokenBits + bit;
            got |= uint64_t((mem[i / 8] >> (i % 8)) & 1) << bit;
        }
        ASSERT_EQ(got, expect) << "token " << t;
    }
}

TEST(InputController, NonDividingTokenWidthNeedsNoDoubleBuffer)
{
    // Input-side analogue of the wedge: after a burst drains, the buffer
    // holds a sub-token residue (1024 = 85 * 12 + 4 bits) the PU cannot
    // pop, and without the skid creditAvailable() never clears
    // residue + burstBits <= capacity, so the stream stalls after the
    // first burst.
    const int kTokenBits = 12;
    const uint64_t kTokens = 3000; // 36000 bits ≈ 35.2 bursts

    auto run = [&](int token_bits_param) {
        dram::DramChannel ch(fastDram(), 1 << 20);
        ControllerParams params;
        params.bufferBursts = 1;
        params.tokenBits = token_bits_param;
        std::vector<StreamRegion> regions = {
            {0, 8192, kTokens * kTokenBits}};
        fillPattern(ch.memory(), regions[0]);
        InputController ctrl(ch, params, regions);

        std::vector<uint64_t> tokens;
        for (int cycle = 0; cycle < 60000; ++cycle) {
            if (ctrl.buffer(0).sizeBits() >= kTokenBits)
                tokens.push_back(ctrl.buffer(0).pop(kTokenBits));
            ctrl.tick();
            ch.tick();
            if (ctrl.done() && tokens.size() == kTokens)
                break;
        }
        return std::make_pair(std::move(tokens),
                              std::vector<uint8_t>(ch.memory().begin(),
                                                   ch.memory().end()));
    };

    auto [wedged_tokens, wedged_mem] = run(0);
    EXPECT_LT(wedged_tokens.size(), kTokens); // the bug: stalls early

    auto [tokens, mem] = run(kTokenBits);
    ASSERT_EQ(tokens.size(), kTokens);
    for (uint64_t t = 0; t < kTokens; ++t) {
        uint64_t expect = 0;
        for (int bit = 0; bit < kTokenBits; ++bit) {
            uint64_t i = t * kTokenBits + bit;
            expect |= uint64_t((mem[i / 8] >> (i % 8)) & 1) << bit;
        }
        ASSERT_EQ(tokens[t], expect) << "token " << t;
    }
}

TEST(OutputController, DividingTokenWidthGetsNoSkid)
{
    // Setting tokenBits must not change behaviour when the token width
    // divides the burst: the buffer capacity stays exactly one burst, so
    // dividing-width runs remain bit-identical to the field left at 0.
    dram::DramChannel ch(fastDram(), 1 << 16);
    ControllerParams params;
    params.tokenBits = 8; // 1024 % 8 == 0
    std::vector<StreamRegion> regions = {{0, 4096, 0}};
    OutputController ctrl(ch, params, regions);
    EXPECT_EQ(ctrl.buffer(0).capacityBits(), uint64_t(params.burstBits));
}

TEST(OutputController, ZeroOutputPuCompletesImmediately)
{
    dram::DramChannel ch(fastDram(), 1 << 16);
    ControllerParams params;
    params.blockingAddressing = false;
    std::vector<StreamRegion> regions = {{0, 4096, 0}};
    OutputController ctrl(ch, params, regions);
    ctrl.setPuFinished(0);
    for (int cycle = 0; cycle < 10; ++cycle) {
        ctrl.tick();
        ch.tick();
    }
    EXPECT_TRUE(ctrl.done());
    EXPECT_EQ(ctrl.payloadBits(0), 0u);
}

TEST(OutputController, NonblockingSkipsSlowProducer)
{
    // One PU produces nothing for a long time; with non-blocking
    // addressing the other PU's output still flows.
    dram::DramChannel ch(fastDram(), 1 << 20);
    ControllerParams params;
    params.blockingAddressing = false;
    std::vector<StreamRegion> regions = {{0, 65536, 0}, {65536, 65536, 0}};
    OutputController ctrl(ch, params, regions);

    uint64_t flushed_mid = 0;
    for (int cycle = 0; cycle < 4000; ++cycle) {
        // PU 0 silent; PU 1 emits 32 bits/cycle.
        if (ctrl.buffer(1).freeBits() >= 32)
            ctrl.push(1, cycle, 32);
        ctrl.tick();
        ch.tick();
        if (cycle == 3999)
            flushed_mid = ch.beatsWritten();
    }
    EXPECT_GT(flushed_mid, 50u);

    // Same setup but blocking: PU 0 blocks the address unit; nothing
    // flushes.
    dram::DramChannel ch2(fastDram(), 1 << 20);
    ControllerParams blocking = params;
    blocking.blockingAddressing = true;
    OutputController ctrl2(ch2, blocking, regions);
    for (int cycle = 0; cycle < 4000; ++cycle) {
        if (ctrl2.buffer(1).freeBits() >= 32)
            ctrl2.push(1, cycle, 32);
        ctrl2.tick();
        ch2.tick();
    }
    EXPECT_EQ(ch2.beatsWritten(), 0u);
}

TEST(OutputController, NonblockingIssueOrderIsRoundRobin)
{
    // The addressing unit serves ready PUs round-robin, and a cycle
    // with nothing to issue leaves its pointer where it was: each burst
    // goes to the first ready PU at or after the one following the
    // previous issue. Readiness is tracked from outside — a PU's
    // uncommitted bits are the bits pushed minus payloadBits().
    dram::DramChannel ch(fastDram(), 1 << 20);
    ControllerParams params;
    params.blockingAddressing = false;
    const int pus = 4;
    std::vector<StreamRegion> regions;
    for (int p = 0; p < pus; ++p)
        regions.push_back({uint64_t(p) * 65536, 65536, 0});
    OutputController ctrl(ch, params, regions);

    std::vector<uint64_t> pushed(pus, 0);
    Rng rng(41);
    int next = 0, issues = 0, contended = 0;
    for (int cycle = 0; cycle < 6000; ++cycle) {
        // Bursty producers: silent stretches, then every PU at a
        // similar rate, so several PUs are often ready at once.
        bool producing = cycle % 900 < 300;
        for (int p = 0; p < pus; ++p) {
            if (producing && rng.nextChance(5 + p, 8) &&
                ctrl.buffer(p).freeBits() >= 32) {
                ctrl.push(p, cycle, 32);
                pushed[p] += 32;
            }
        }
        std::vector<uint64_t> before(pus);
        std::vector<bool> ready(pus);
        int num_ready = 0;
        for (int p = 0; p < pus; ++p) {
            before[p] = ctrl.payloadBits(p);
            ready[p] = pushed[p] - before[p] >= uint64_t(params.burstBits);
            num_ready += ready[p];
        }
        ctrl.tick();
        ch.tick();
        for (int p = 0; p < pus; ++p) {
            if (ctrl.payloadBits(p) == before[p])
                continue;
            ASSERT_TRUE(ready[p]) << "cycle " << cycle;
            int expect = next;
            while (!ready[expect])
                expect = (expect + 1) % pus;
            EXPECT_EQ(p, expect) << "cycle " << cycle;
            next = (p + 1) % pus;
            ++issues;
            contended += num_ready > 1;
        }
    }
    EXPECT_GT(issues, 40);
    EXPECT_GT(contended, 10);
}

TEST(OutputController, OverflowingRegionContained)
{
    dram::DramChannel ch(fastDram(), 1 << 16);
    ControllerParams params;
    params.blockingAddressing = false;
    // Region fits exactly one burst.
    std::vector<StreamRegion> regions = {{0, 128, 0}};
    OutputController ctrl(ch, params, regions);
    for (int cycle = 0; cycle < 2000; ++cycle) {
        if (ctrl.buffer(0).freeBits() >= 32)
            ctrl.push(0, 0xdeadbeef, 32);
        ctrl.tick();
        ch.tick();
    }
    // The second burst would exceed the 128-byte region: the PU is
    // contained (not fatal), the event is surfaced once, and the first
    // burst's data still flushes to memory.
    EXPECT_TRUE(ctrl.puFailed(0));
    auto event = ctrl.takeOverflowEvent();
    ASSERT_TRUE(event.has_value());
    EXPECT_EQ(event->pu, 0);
    EXPECT_EQ(event->regionBytes, 128u);
    EXPECT_FALSE(ctrl.takeOverflowEvent().has_value());
    EXPECT_EQ(ctrl.payloadBits(0), 1024u); // Exactly one committed burst.
    EXPECT_GT(ch.beatsWritten(), 0u);
    EXPECT_TRUE(ctrl.done());
}

// ---------------------------------------------------------------------------
// Controller re-arm (ISSUE 5): per-PU stream state must fully reset
// between consecutive streams on the same lane.
// ---------------------------------------------------------------------------

namespace {

/** Pop whole tokens until the controller drains `want` of them (or the
 * cycle budget runs out); returns the tokens in arrival order. */
std::vector<uint64_t>
drainTokens(InputController &ctrl, dram::DramChannel &ch, int token_bits,
            uint64_t want)
{
    std::vector<uint64_t> tokens;
    for (int cycle = 0; cycle < 120000; ++cycle) {
        if (ctrl.buffer(0).sizeBits() >= uint64_t(token_bits))
            tokens.push_back(ctrl.buffer(0).pop(token_bits));
        ctrl.tick();
        ch.tick();
        if (ctrl.done() && tokens.size() == want && ctrl.puIdle(0))
            break;
    }
    return tokens;
}

/** Token `t` of the bit-packed stream at `base` in `mem`. */
uint64_t
memoryToken(const dram::ChannelMemory &mem, uint64_t base,
            int token_bits, uint64_t t)
{
    uint64_t value = 0;
    for (int bit = 0; bit < token_bits; ++bit) {
        uint64_t i = t * uint64_t(token_bits) + bit;
        value |= uint64_t((mem[base + i / 8] >> (i % 8)) & 1) << bit;
    }
    return value;
}

} // namespace

TEST(InputController, RearmDeliversConsecutiveStreamsBitExact)
{
    // The re-arm seam the job runtime rides on: run stream A to
    // completion, re-arm the lane, run a *longer* stream B from the
    // same region base — with the non-power-of-two token width from
    // PR 4 (12 bits, 1024 % 12 != 0), so the skid/residue path resets
    // too. Both streams must arrive bit-exact.
    const int kTokenBits = 12;
    const uint64_t kTokensA = 2000, kTokensB = 3333;
    dram::DramChannel ch(fastDram(), 1 << 20);
    ControllerParams params;
    params.tokenBits = kTokenBits;
    params.bufferBursts = 1;
    std::vector<StreamRegion> regions = {{0, 8192, kTokensA * kTokenBits}};
    fillPattern(ch.memory(), regions[0]);
    InputController ctrl(ch, params, regions);

    auto tokens_a = drainTokens(ctrl, ch, kTokenBits, kTokensA);
    ASSERT_EQ(tokens_a.size(), kTokensA);
    ASSERT_TRUE(ctrl.done());
    ASSERT_TRUE(ctrl.streamExhausted(0));
    ASSERT_TRUE(ctrl.puIdle(0));
    for (uint64_t t = 0; t < kTokensA; ++t)
        ASSERT_EQ(tokens_a[t], memoryToken(ch.memory(), 0, kTokenBits, t))
            << "stream A token " << t;

    // Overwrite the region with stream B's payload, then re-arm: the
    // input_finished protocol must start over.
    for (uint64_t i = 0; i < ceilDiv(kTokensB * kTokenBits, 8); ++i)
        ch.memory()[i] = uint8_t(i * 13 + 5);
    ctrl.rearmPu(0, kTokensB * kTokenBits);
    EXPECT_FALSE(ctrl.done());
    EXPECT_FALSE(ctrl.streamExhausted(0));
    EXPECT_TRUE(ctrl.buffer(0).empty());

    auto tokens_b = drainTokens(ctrl, ch, kTokenBits, kTokensB);
    ASSERT_EQ(tokens_b.size(), kTokensB);
    EXPECT_TRUE(ctrl.streamExhausted(0));
    for (uint64_t t = 0; t < kTokensB; ++t)
        ASSERT_EQ(tokens_b[t], memoryToken(ch.memory(), 0, kTokenBits, t))
            << "stream B token " << t;
}

TEST(InputController, RearmAfterKillDiscardsOldStream)
{
    // Containment then reuse: kill the lane mid-stream (undrained
    // bursts discard, the buffer still holds stale bits), wait for
    // idle, re-arm. None of stream A's bits may leak into stream B.
    const int kTokenBits = 12;
    const uint64_t kTokensA = 4000, kTokensB = 500;
    dram::DramChannel ch(fastDram(), 1 << 20);
    ControllerParams params;
    params.tokenBits = kTokenBits;
    std::vector<StreamRegion> regions = {{0, 8192, kTokensA * kTokenBits}};
    fillPattern(ch.memory(), regions[0]);
    InputController ctrl(ch, params, regions);

    // Let the first burst drain but kill while later bursts are still
    // in flight (32 bits/cycle drain → burst 1 is mid-drain at 40).
    for (int cycle = 0; cycle < 40; ++cycle) {
        ctrl.tick();
        ch.tick();
    }
    EXPECT_GT(ctrl.buffer(0).sizeBits(), 0u);
    ASSERT_GT(ctrl.inflightBursts(), 0);
    ctrl.killPu(0);
    EXPECT_THROW(ctrl.rearmPu(0, 8), PanicError); // not yet idle
    for (int cycle = 0; cycle < 5000 && !ctrl.puIdle(0); ++cycle) {
        ctrl.tick();
        ch.tick();
    }
    ASSERT_TRUE(ctrl.puIdle(0));

    for (uint64_t i = 0; i < ceilDiv(kTokensB * kTokenBits, 8); ++i)
        ch.memory()[i] = uint8_t(i * 31 + 7);
    ctrl.rearmPu(0, kTokensB * kTokenBits);
    EXPECT_TRUE(ctrl.buffer(0).empty()); // stale bits discarded

    auto tokens_b = drainTokens(ctrl, ch, kTokenBits, kTokensB);
    ASSERT_EQ(tokens_b.size(), kTokensB);
    for (uint64_t t = 0; t < kTokensB; ++t)
        ASSERT_EQ(tokens_b[t], memoryToken(ch.memory(), 0, kTokenBits, t))
            << "stream B token " << t;
}

TEST(OutputController, RearmFlushesConsecutiveStreamsBitExact)
{
    // Output side: finished / flushIssued were one-way within a job;
    // re-arm must reset them so a second stream (different length,
    // 12-bit tokens → partial final burst + skid) flushes cleanly over
    // the same region.
    const int kTokenBits = 12;
    dram::DramChannel ch(fastDram(), 1 << 20);
    ControllerParams params;
    params.blockingAddressing = false;
    params.bufferBursts = 1;
    params.tokenBits = kTokenBits;
    std::vector<StreamRegion> regions = {{0, 8192, 0}};
    OutputController ctrl(ch, params, regions);

    auto emitStream = [&](uint64_t tokens, uint64_t mult, uint64_t add) {
        uint64_t emitted = 0;
        for (int cycle = 0; cycle < 60000; ++cycle) {
            if (emitted < tokens &&
                ctrl.buffer(0).freeBits() >= uint64_t(kTokenBits)) {
                ctrl.push(0, (emitted * mult + add) & mask64(kTokenBits),
                          kTokenBits);
                if (++emitted == tokens)
                    ctrl.setPuFinished(0);
            }
            ctrl.tick();
            ch.tick();
            if (emitted == tokens && ctrl.done() && ctrl.puFlushed(0))
                break;
        }
        return emitted == tokens && ctrl.puFlushed(0);
    };

    const uint64_t kTokensA = 700;
    ASSERT_TRUE(emitStream(kTokensA, 5, 3));
    EXPECT_EQ(ctrl.payloadBits(0), kTokensA * kTokenBits);
    for (uint64_t t = 0; t < kTokensA; ++t)
        ASSERT_EQ(memoryToken(ch.memory(), 0, kTokenBits, t),
                  (t * 5 + 3) & mask64(kTokenBits))
            << "stream A token " << t;

    ctrl.rearmPu(0);
    EXPECT_EQ(ctrl.payloadBits(0), 0u);
    EXPECT_FALSE(ctrl.puFlushed(0)); // protocol restarted

    const uint64_t kTokensB = 1100;
    ASSERT_TRUE(emitStream(kTokensB, 11, 9));
    EXPECT_EQ(ctrl.payloadBits(0), kTokensB * kTokenBits);
    for (uint64_t t = 0; t < kTokensB; ++t)
        ASSERT_EQ(memoryToken(ch.memory(), 0, kTokenBits, t),
                  (t * 11 + 9) & mask64(kTokenBits))
            << "stream B token " << t;
}

TEST(OutputController, RearmAfterOverflowClearsContainment)
{
    // An overflow-contained lane (failed, uncommitted remainder
    // dropped) must re-arm into a fully healthy lane.
    dram::DramChannel ch(fastDram(), 1 << 16);
    ControllerParams params;
    params.blockingAddressing = false;
    std::vector<StreamRegion> regions = {{0, 128, 0}};
    OutputController ctrl(ch, params, regions);
    for (int cycle = 0; cycle < 2000; ++cycle) {
        if (ctrl.buffer(0).freeBits() >= 32)
            ctrl.push(0, 0xdeadbeef, 32);
        ctrl.tick();
        ch.tick();
    }
    ASSERT_TRUE(ctrl.puFailed(0));
    ASSERT_TRUE(ctrl.puFlushed(0));

    ctrl.rearmPu(0);
    EXPECT_FALSE(ctrl.puFailed(0));
    EXPECT_EQ(ctrl.payloadBits(0), 0u);

    // A fitting second stream completes with no residue of the failure.
    uint64_t emitted = 0;
    const uint64_t kWords = 16; // 64 bytes < 128-byte region
    for (int cycle = 0; cycle < 4000; ++cycle) {
        if (emitted < kWords && ctrl.buffer(0).freeBits() >= 32) {
            ctrl.push(0, emitted * 9 + 1, 32);
            if (++emitted == kWords)
                ctrl.setPuFinished(0);
        }
        ctrl.tick();
        ch.tick();
        if (emitted == kWords && ctrl.done() && ctrl.puFlushed(0))
            break;
    }
    EXPECT_FALSE(ctrl.puFailed(0));
    EXPECT_EQ(ctrl.payloadBits(0), kWords * 32);
    for (uint64_t w = 0; w < kWords; ++w) {
        uint32_t got = 0;
        for (int byte = 0; byte < 4; ++byte)
            got |= uint32_t(ch.memory()[w * 4 + byte]) << (8 * byte);
        ASSERT_EQ(got, uint32_t(w * 9 + 1)) << "word " << w;
    }
}

TEST(OutputController, RearmBeforeFlushPanics)
{
    dram::DramChannel ch(fastDram(), 1 << 16);
    ControllerParams params;
    params.blockingAddressing = false;
    std::vector<StreamRegion> regions = {{0, 4096, 0}};
    OutputController ctrl(ch, params, regions);
    ctrl.push(0, 0xff, 8); // un-flushed output in flight
    EXPECT_THROW(ctrl.rearmPu(0), PanicError);
}

} // namespace
} // namespace memctl
} // namespace fleet
