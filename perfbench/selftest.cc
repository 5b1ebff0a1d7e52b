/**
 * @file
 * Self-test of the benchmark's own arithmetic (harness.h): percentile
 * ranks and the samples beyond them, medians, per-step minima of host
 * time, self-time subtraction, failed_frac accounting and the digest.
 * run.py runs it after every build and refuses to measure if it fails.
 */

#include <cmath>
#include <cstdio>
#include <numeric>
#include <vector>

#include "harness.h"

namespace {

int failures = 0;

void
check(bool ok, const char *what)
{
    if (!ok) {
        std::fprintf(stderr, "selftest FAILED: %s\n", what);
        ++failures;
    }
}

bool
near(double a, double b)
{
    return std::fabs(a - b) < 1e-12;
}

std::vector<uint64_t>
oneTo(size_t n)
{
    std::vector<uint64_t> v(n);
    std::iota(v.begin(), v.end(), 1);
    return v;
}

void
testPercentiles()
{
    using perfbench::percentile;
    using perfbench::percentileRank;
    check(percentileRank(100, 0.50) == 49, "p50 rank of 100");
    check(percentileRank(100, 0.99) == 98, "p99 rank of 100");
    check(percentileRank(1, 0.99) == 0, "rank of a single sample");
    check(percentileRank(10, 1.0) == 9, "p100 is the maximum");

    // The p99 of 1000 samples has exactly ten beyond it; 999 has nine.
    check(percentile(oneTo(1000), 0.99).beyond == 10, "1000 -> 10 beyond");
    check(percentile(oneTo(999), 0.99).beyond == 9, "999 -> 9 beyond");
    perfbench::Percentile p = percentile(oneTo(2000), 0.99);
    check(p.value == 1980 && p.beyond == 20 && p.samples == 2000,
          "p99 of 1..2000");

    // Order of the input does not matter.
    std::vector<uint64_t> shuffled = {5, 1, 4, 2, 3};
    check(percentile(shuffled, 0.5).value == 3, "p50 of shuffled");
    check(percentile({}, 0.5).samples == 0, "empty set");

    check(near(perfbench::median({3, 1, 2}), 2.0), "odd median");
    check(near(perfbench::median({4, 1, 3, 2}), 2.5), "even median");
}

void
testFastestSteps()
{
    using perfbench::fastestSteps;
    // Three passes of three steps; interference slows pass 0 at step 0,
    // pass 1 at step 1 and pass 2 at steps 1 and 2, and none of it
    // survives the per-step minimum (the fastest whole pass, 11, would
    // keep some of it).
    check(near(fastestSteps({{9, 2, 3}, {1, 7, 3}, {1, 5, 8}}), 6.0),
          "interference in different passes drops out");
    check(near(fastestSteps({{4.5}}), 4.5), "single pass, single step");
    check(near(fastestSteps({{2, 1}, {1, 2}}), 2.0), "two passes");
    check(near(fastestSteps({}), 0.0), "no passes");
    check(fastestSteps({{1, 2}, {1}}) < 0, "step counts must agree");
}

void
testSelfTime()
{
    using perfbench::Span;
    // root [0, 10]; children [1, 3] and [2, 5] overlap, [8, 12] runs past
    // the root; grandchild [1.5, 2.5] lies inside the first child.
    std::vector<Span> spans(5);
    spans[0] = {"root", 0.0, 10.0, -1, 0};
    spans[1] = {"a", 1.0, 3.0, 0, 0};
    spans[2] = {"b", 2.0, 5.0, 0, 0};
    spans[3] = {"c", 8.0, 12.0, 0, 0};
    spans[4] = {"d", 1.5, 2.5, 1, 0};
    std::vector<double> self = perfbench::selfTimes(spans);
    // Covered: [1, 5] and [8, 10] -> 6 s of 10.
    check(near(self[0], 4.0), "root self time");
    check(near(self[1], 1.0), "child self time minus grandchild");
    check(near(self[2], 3.0), "overlapping child");
    check(near(self[3], 4.0), "child outside the parent keeps its time");
    check(near(self[4], 1.0), "leaf self time is its duration");

    // In a properly nested tree the self times add up to the root's
    // duration, and every span knows its root.
    std::vector<Span> tree(5);
    tree[0] = {"pass", 0.0, 10.0, -1, 0};
    tree[1] = {"setup", 1.0, 4.0, 0, 0};
    tree[2] = {"build", 2.0, 3.0, 1, 0};
    tree[3] = {"run", 5.0, 9.0, 0, 0};
    tree[4] = {"verify", 10.0, 11.0, -1, 0};
    std::vector<double> tself = perfbench::selfTimes(tree);
    check(near(tself[0] + tself[1] + tself[2] + tself[3], 10.0),
          "self times add up to the root");
    std::vector<int> root = perfbench::rootIndex(tree);
    check(root[2] == 0 && root[3] == 0 && root[4] == 4, "root of each span");

    // Recorder nesting: parents follow the open-span stack.
    perfbench::SpanRecorder rec;
    {
        perfbench::ScopedSpan outer(&rec, "outer", 7);
        perfbench::ScopedSpan inner(&rec, "inner", 8);
    }
    perfbench::ScopedSpan off(nullptr, "untraced");
    check(rec.spans().size() == 2, "two spans recorded");
    check(rec.spans()[1].parent == 0 && rec.spans()[1].op == 8,
          "inner span's parent and op");
    check(rec.spans()[0].end >= rec.spans()[1].end, "outer ends last");
}

void
testTally()
{
    perfbench::OpTally t;
    t.record(false, false, true); // ok
    t.record(false, false, true); // ok
    t.record(true, false, false); // refused: no output to compare
    t.record(false, true, false); // error, not also a mismatch
    t.record(false, false, false); // wrong output
    t.record(false, false, true); // ok
    check(t.attempted == 6, "attempted");
    check(t.refused == 1 && t.errored == 1 && t.mismatched == 1,
          "failure classes");
    check(t.failed() == 3 && near(t.failedFrac(), 0.5), "failed_frac");
    check(near(perfbench::OpTally{}.failedFrac(), 0.0), "empty tally");
}

void
testDigest()
{
    perfbench::Digest a, b, c;
    a.add(1);
    a.add(2);
    b.add(1);
    b.add(2);
    c.add(2);
    c.add(1);
    check(a.value() == b.value(), "digest is deterministic");
    check(a.value() != c.value(), "digest depends on order");
}

} // namespace

int
main()
{
    testPercentiles();
    testFastestSteps();
    testSelfTime();
    testTally();
    testDigest();
    if (failures == 0)
        std::printf("perfbench selftest: ok\n");
    return failures == 0 ? 0 : 1;
}
