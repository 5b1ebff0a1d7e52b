#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <system_error>
#include <memory>
#include <string>
#include <vector>

#include "compile/compiler.h"
#include "rtl/batch_sim.h"
#include "rtl/jit.h"
#include "rtl/tape.h"
#include "sim/simulator.h"
#include "system/fleet_system.h"
#include "test_programs.h"
#include "util/bitbuf.h"
#include "util/rng.h"

/**
 * Cache and failure-containment tests for the native tape compiler
 * (rtl/jit.h, ISSUE 9). Bit-identity against the interpreter is
 * covered exhaustively by the random-program property suite; this file
 * pins the operational contract: artifacts are reused across processes
 * via the on-disk cache, a corrupted cache entry triggers a fresh
 * compile instead of loading garbage, and every failure path
 * (FLEET_JIT_DISABLE, missing toolchain, compile error) degrades to
 * the interpreter via a Status — never an abort.
 */

namespace fleet {
namespace {

/** Scoped environment-variable override, restored on destruction. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        const char *old = ::getenv(name);
        had_ = old != nullptr;
        if (had_)
            old_ = old;
        if (value)
            ::setenv(name, value, 1);
        else
            ::unsetenv(name);
    }
    ~ScopedEnv()
    {
        if (had_)
            ::setenv(name_.c_str(), old_.c_str(), 1);
        else
            ::unsetenv(name_.c_str());
    }

  private:
    std::string name_, old_;
    bool had_ = false;
};

std::shared_ptr<const rtl::TapeProgram>
sumTape()
{
    auto unit = compile::compileProgram(testprogs::streamSum());
    return std::make_shared<const rtl::TapeProgram>(
        rtl::TapeProgram::compile(unit.circuit));
}

std::string
freshCacheDir(const std::string &leaf)
{
    // Wiped so reruns start cold; JitProgram::compile recreates it.
    std::string dir = ::testing::TempDir() + "fleet_jit_test_" + leaf;
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    return dir;
}

/** Drive a few hundred cycles on a jit-backed and an interpreted batch
 * and require identical outputs — proves a (re)compiled artifact is
 * actually functional, not merely loadable. */
void
expectFunctional(std::shared_ptr<const rtl::TapeProgram> tape,
                 std::shared_ptr<const rtl::JitProgram> jit)
{
    auto unit = compile::compileProgram(testprogs::streamSum());
    const int lanes = jit->lanes();
    rtl::BatchSimulator ref(tape, lanes);
    rtl::BatchSimulator jbs(tape, lanes);
    jbs.attachJit(jit);
    Rng rng(7);
    for (int cycle = 0; cycle < 200; ++cycle) {
        for (int l = 0; l < lanes; ++l) {
            uint64_t tok = rng.next() & 0xffu;
            for (rtl::BatchSimulator *s : {&ref, &jbs}) {
                s->setInput(l, unit.inInputToken, tok);
                s->setInput(l, unit.inInputValid, 1);
                s->setInput(l, unit.inInputFinished, 0);
                s->setInput(l, unit.inOutputReady, 1);
            }
        }
        ref.evalAll();
        jbs.evalAll();
        for (int l = 0; l < lanes; ++l)
            for (rtl::NodeId out :
                 {unit.outInputReady, unit.outOutputToken,
                  unit.outOutputValid, unit.outOutputFinished})
                ASSERT_EQ(jbs.value(l, out), ref.value(l, out))
                    << "cycle " << cycle << " lane " << l;
        ref.step();
        jbs.step();
    }
}

TEST(RtlJitCache, SameTapeSharesOneInProcessInstance)
{
    auto tape = sumTape();
    rtl::JitOptions opts;
    opts.lanes = 4;
    opts.cacheDir = freshCacheDir("share");
    Status status;
    auto first = rtl::JitProgram::compile(*tape, opts, &status);
    if (!first)
        GTEST_SKIP() << "jit unavailable: " << status.toString();
    auto second = rtl::JitProgram::compile(*tape, opts, &status);
    EXPECT_EQ(first.get(), second.get())
        << "second compile of the same (tape, lanes) must reuse the "
           "in-process instance";
    // A different lane count is a different specialization.
    rtl::JitOptions other = opts;
    other.lanes = 5;
    auto third = rtl::JitProgram::compile(*tape, other, &status);
    ASSERT_NE(third, nullptr) << status.toString();
    EXPECT_NE(first.get(), third.get());
    EXPECT_NE(rtl::JitProgram::cacheKey(*tape, 4),
              rtl::JitProgram::cacheKey(*tape, 5));
}

TEST(RtlJitCache, DiskArtifactReusedWithoutRecompiling)
{
    auto tape = sumTape();
    rtl::JitOptions opts;
    opts.lanes = 4;
    opts.cacheDir = freshCacheDir("disk");
    Status status;
    auto first = rtl::JitProgram::compile(*tape, opts, &status);
    if (!first)
        GTEST_SKIP() << "jit unavailable: " << status.toString();
    EXPECT_FALSE(first->fromDiskCache());
    const std::string artifact = first->artifactPath();
    first.reset();

    rtl::JitProgram::dropInProcessCacheForTests();
    auto second = rtl::JitProgram::compile(*tape, opts, &status);
    ASSERT_NE(second, nullptr) << status.toString();
    EXPECT_TRUE(second->fromDiskCache())
        << "expected the cached artifact at " << artifact
        << " to be reused";
    EXPECT_EQ(second->artifactPath(), artifact);
    expectFunctional(tape, second);
}

TEST(RtlJitCache, DiskHitNeedsNoCompiler)
{
    // A cached artifact loads without looking for a compiler: probing
    // one spawns a shell, which a cache hit must not pay for.
    auto tape = sumTape();
    rtl::JitOptions opts;
    opts.lanes = 4;
    opts.cacheDir = freshCacheDir("nocc-hit");
    Status status;
    auto first = rtl::JitProgram::compile(*tape, opts, &status);
    if (!first)
        GTEST_SKIP() << "jit unavailable: " << status.toString();
    first.reset();
    rtl::JitProgram::dropInProcessCacheForTests();

    opts.compiler = "/nonexistent/fleet-test-has-no-such-compiler";
    auto second = rtl::JitProgram::compile(*tape, opts, &status);
    ASSERT_NE(second, nullptr) << status.toString();
    EXPECT_TRUE(second->fromDiskCache());
    expectFunctional(tape, second);
}

TEST(RtlJitCache, CorruptedArtifactTriggersFreshCompile)
{
    auto tape = sumTape();
    rtl::JitOptions opts;
    opts.lanes = 4;
    opts.cacheDir = freshCacheDir("corrupt");
    Status status;
    auto first = rtl::JitProgram::compile(*tape, opts, &status);
    if (!first)
        GTEST_SKIP() << "jit unavailable: " << status.toString();
    const std::string artifact = first->artifactPath();
    first.reset();
    rtl::JitProgram::dropInProcessCacheForTests();

    {
        std::ofstream f(artifact,
                        std::ios::binary | std::ios::trunc);
        f << "not an ELF shared object";
    }

    auto second = rtl::JitProgram::compile(*tape, opts, &status);
    ASSERT_NE(second, nullptr)
        << "corrupted cache entry must fall back to a fresh compile: "
        << status.toString();
    EXPECT_FALSE(second->fromDiskCache());
    expectFunctional(tape, second);
}

TEST(RtlJitFallback, DisableEnvReportsUnavailable)
{
    ScopedEnv disable("FLEET_JIT_DISABLE", "1");
    auto tape = sumTape();
    rtl::JitOptions opts;
    opts.lanes = 4;
    opts.cacheDir = freshCacheDir("disabled");
    EXPECT_FALSE(rtl::JitProgram::availability(opts).ok());
    Status status;
    auto jit = rtl::JitProgram::compile(*tape, opts, &status);
    EXPECT_EQ(jit, nullptr);
    EXPECT_FALSE(status.ok());
    EXPECT_EQ(status.code, StatusCode::InvalidArgument)
        << status.toString();
}

TEST(RtlJitFallback, MissingCompilerFailsWithStatusNotAbort)
{
    auto tape = sumTape();
    rtl::JitOptions opts;
    opts.lanes = 4;
    opts.cacheDir = freshCacheDir("nocc");
    opts.compiler = "/nonexistent/fleet-test-has-no-such-compiler";
    opts.forceRecompile = true;
    Status status;
    auto jit = rtl::JitProgram::compile(*tape, opts, &status);
    EXPECT_EQ(jit, nullptr);
    EXPECT_FALSE(status.ok()) << "a bogus compiler must surface as a "
                                 "Status, never an abort";
}

/** The system-level contract for the FLEET_JIT_DISABLE CI leg: a
 * RtlJit binding silently runs on the interpreted batch, one batch per
 * channel, with correct outputs and slotBackend() reporting the
 * demotion. */
TEST(RtlJitFallback, SystemDemotesToRtlBatchAndStillCompletes)
{
    ScopedEnv disable("FLEET_JIT_DISABLE", "1");
    lang::Program program = testprogs::streamSum();
    Rng rng(11);
    std::vector<BitBuffer> streams;
    for (int p = 0; p < 4; ++p) {
        BitBuffer stream;
        for (int t = 0; t < 64; ++t)
            stream.appendBits(rng.next(), 8);
        streams.push_back(std::move(stream));
    }

    system::SystemConfig config;
    config.numChannels = 2;
    config.backend = system::PuBackend::RtlJit;
    config.trace.counters = true;
    system::FleetSystem system(program, config, streams);
    const system::RunReport &report = system.run();
    ASSERT_TRUE(report.allOk());
    for (int p = 0; p < int(streams.size()); ++p)
        EXPECT_EQ(system.slotBackend(p), system::PuBackend::Rtl)
            << "PU " << p << " should have been demoted";

    // Each channel's demoted slots still share one batch.
    ASSERT_NE(report.trace, nullptr);
    const uint64_t lanes = streams.size() / config.numChannels;
    int pu_sets = 0;
    for (const auto &channel : report.trace->channels)
        for (const auto &set : channel.counters) {
            if (set.name.find("/pu") == std::string::npos)
                continue;
            ++pu_sets;
            EXPECT_EQ(set.get("batch_width"), lanes) << set.name;
            EXPECT_FALSE(set.has("backend_rtl_jit")) << set.name;
        }
    EXPECT_EQ(pu_sets, int(streams.size()));

    sim::FunctionalSimulator functional(program);
    for (size_t p = 0; p < streams.size(); ++p) {
        sim::RunResult golden = functional.run(streams[p]);
        ASSERT_TRUE(system.output(p) == golden.output)
            << "PU " << p << " output mismatch under jit fallback";
    }
}

TEST(RtlJitEmit, SourceIsDeterministic)
{
    auto tape = sumTape();
    EXPECT_EQ(rtl::JitProgram::emitSource(*tape, 4),
              rtl::JitProgram::emitSource(*tape, 4));
    EXPECT_NE(rtl::JitProgram::emitSource(*tape, 4),
              rtl::JitProgram::emitSource(*tape, 8))
        << "lane count must be baked into the generated code";
}

} // namespace
} // namespace fleet
