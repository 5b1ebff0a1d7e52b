#ifndef FLEET_PERFBENCH_HARNESS_H
#define FLEET_PERFBENCH_HARNESS_H

/**
 * @file
 * The benchmark's own arithmetic, kept free of simulator types so the
 * self-test (selftest.cc) checks it in isolation: nearest-rank
 * percentiles with the count of samples beyond the rank, medians,
 * per-step minima of host time, operation accounting for failed_frac,
 * in-memory spans with self time, a Chrome trace writer and the FNV-1a
 * digest behind sim_digest.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/** Nearest-rank percentile of a sample set, with the sample counts the
 * report states next to it. */
struct Percentile
{
    uint64_t value = 0;
    size_t samples = 0;
    /** Samples strictly above the rank (ranked later). */
    size_t beyond = 0;
};

/** 0-based nearest rank of quantile q in n samples: ceil(q n) - 1. */
inline size_t
percentileRank(size_t n, double q)
{
    if (n == 0)
        return 0;
    double r = std::ceil(q * double(n));
    size_t rank = r < 1.0 ? 0 : size_t(r) - 1;
    return std::min(rank, n - 1);
}

inline Percentile
percentile(std::vector<uint64_t> samples, double q)
{
    Percentile p;
    p.samples = samples.size();
    if (samples.empty())
        return p;
    std::sort(samples.begin(), samples.end());
    size_t rank = percentileRank(samples.size(), q);
    p.value = samples[rank];
    p.beyond = samples.size() - 1 - rank;
    return p;
}

inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/**
 * Host time of a pass that repeats the same steps on every pass: the sum
 * over steps of the fastest pass's time for that step. Other work on a
 * shared host only ever adds time, and it comes and goes within a pass,
 * so a step's minimum across passes is its cost with the least
 * interference. Every pass must have the same number of steps (returns
 * -1 otherwise).
 */
inline double
fastestSteps(const std::vector<std::vector<double>> &passes)
{
    if (passes.empty())
        return 0.0;
    const size_t steps = passes.front().size();
    double sum = 0.0;
    for (size_t k = 0; k < steps; ++k) {
        double fastest = passes.front()[k];
        for (const std::vector<double> &pass : passes) {
            if (pass.size() != steps)
                return -1.0;
            fastest = std::min(fastest, pass[k]);
        }
        sum += fastest;
    }
    return sum;
}

/**
 * Operations attempted and failed. An operation is a PU stream in the
 * one-shot workloads and a job otherwise; it fails when the simulator
 * reports an error, refuses it, or its output differs from the golden.
 */
struct OpTally
{
    uint64_t attempted = 0;
    uint64_t errored = 0;
    uint64_t refused = 0;
    uint64_t mismatched = 0;

    /** Count one operation. A refused operation produced no output to
     * compare; an errored one is not also counted as a mismatch. */
    void record(bool refused_op, bool error, bool output_matches)
    {
        ++attempted;
        if (refused_op)
            ++refused;
        else if (error)
            ++errored;
        else if (!output_matches)
            ++mismatched;
    }
    uint64_t failed() const { return errored + refused + mismatched; }
    double failedFrac() const
    {
        return attempted ? double(failed()) / double(attempted) : 0.0;
    }
};

/** Seconds on the steady clock since the first call in this process. */
inline double
nowSeconds()
{
    using Clock = std::chrono::steady_clock;
    static const Clock::time_point epoch = Clock::now();
    return std::chrono::duration<double>(Clock::now() - epoch).count();
}

/** One timed call into a layer. `layer` must be a string literal. */
struct Span
{
    const char *layer = "";
    double start = 0.0;
    double end = 0.0;
    int parent = -1; ///< Index of the enclosing span, -1 for a root.
    uint64_t op = 0; ///< Operation id (job, round or iteration).
};

/**
 * Spans kept in memory, nested by a stack of open spans, and written
 * out once when the benchmark ends.
 */
class SpanRecorder
{
  public:
    int begin(const char *layer, uint64_t op)
    {
        Span s;
        s.layer = layer;
        s.parent = open_.empty() ? -1 : open_.back();
        s.op = op;
        s.start = nowSeconds();
        spans_.push_back(s);
        open_.push_back(int(spans_.size()) - 1);
        return open_.back();
    }
    void end(int id)
    {
        spans_[id].end = nowSeconds();
        if (!open_.empty() && open_.back() == id)
            open_.pop_back();
    }
    const std::vector<Span> &spans() const { return spans_; }
    /** Append a span recorded by another recorder; its parent index
     * must already refer to this recorder's spans. */
    int add(const Span &s)
    {
        spans_.push_back(s);
        return int(spans_.size()) - 1;
    }

  private:
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** RAII span; does nothing when the recorder is null (untraced). */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder *rec, const char *layer, uint64_t op = 0)
        : rec_(rec), id_(rec ? rec->begin(layer, op) : -1)
    {
    }
    ~ScopedSpan()
    {
        if (rec_)
            rec_->end(id_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanRecorder *rec_;
    int id_;
};

/**
 * Self time of every span: its duration minus the part of its interval
 * that its direct children cover (children clipped to the parent, and
 * overlapping children counted once).
 */
inline std::vector<double>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
    for (const Span &s : spans)
        if (s.parent >= 0 && size_t(s.parent) < spans.size())
            kids[s.parent].push_back({s.start, s.end});
    std::vector<double> self(spans.size(), 0.0);
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        auto &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        double covered = 0.0;
        double cur_lo = 0.0, cur_hi = 0.0;
        bool open = false;
        for (auto [lo, hi] : iv) {
            lo = std::max(lo, s.start);
            hi = std::min(hi, s.end);
            if (hi <= lo)
                continue;
            if (open && lo <= cur_hi) {
                cur_hi = std::max(cur_hi, hi);
                continue;
            }
            if (open)
                covered += cur_hi - cur_lo;
            cur_lo = lo;
            cur_hi = hi;
            open = true;
        }
        if (open)
            covered += cur_hi - cur_lo;
        self[i] = std::max(0.0, (s.end - s.start) - covered);
    }
    return self;
}

/** Index of the root span above each span (its own for a root). Parents
 * come before their children, as SpanRecorder records them. */
inline std::vector<int>
rootIndex(const std::vector<Span> &spans)
{
    std::vector<int> root(spans.size());
    for (size_t i = 0; i < spans.size(); ++i)
        root[i] = spans[i].parent < 0 ? int(i) : root[spans[i].parent];
    return root;
}

/** Write spans as Chrome trace_event JSON (complete events, in us). */
inline bool
writeChromeTrace(const std::string &path, const std::vector<Span> &spans)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{\"traceEvents\":[\n");
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::fprintf(f,
                     "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                     "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":"
                     "{\"id\":%zu,\"parent\":%d,\"op\":%llu}}\n",
                     i ? "," : "", s.layer, s.start * 1e6,
                     (s.end - s.start) * 1e6, i, s.parent,
                     static_cast<unsigned long long>(s.op));
    }
    std::fprintf(f, "],\"displayTimeUnit\":\"ms\"}\n");
    return std::fclose(f) == 0;
}

/** FNV-1a over 64-bit words: the sim_digest of simulated results. */
class Digest
{
  public:
    void add(uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xff;
            h_ *= 0x100000001b3ULL;
        }
    }
    uint64_t value() const { return h_; }

  private:
    uint64_t h_ = 0xcbf29ce484222325ULL;
};

} // namespace perfbench

#endif // FLEET_PERFBENCH_HARNESS_H
