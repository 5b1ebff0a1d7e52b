#ifndef FLEET_BENCH_HARNESS_H
#define FLEET_BENCH_HARNESS_H

/**
 * @file
 * The plumbing every bench binary shares, so each bench file holds only
 * its experiment:
 *
 *  - a table-driven flag parser (the shared --smoke/--json/--baseline/
 *    --threads/--backend flags plus each bench's own) that rejects
 *    unknown flags, missing values and values that are not wholly a
 *    number in range, with the usage line and exit code 2;
 *  - the run-provenance block that opens every BENCH_*.json, written
 *    with json::Writer, and the file write itself;
 *  - the exact-replay --baseline check: one named value per result row
 *    must match a previous artifact's text exactly, at its printed
 *    precision (the simulator is deterministic, so any drift is a real
 *    behaviour change, not noise);
 *  - the determinism crosscheck: replay a reference point on 1 and 2
 *    host threads and on another PU backend, and require the simulated
 *    per-job signature to be bit-identical;
 *  - the open-loop release driver of the serving benches.
 */

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "json.h"
#include "serve/load_gen.h"
#include "serve/service.h"
#include "system/pu_backend.h"

namespace fleet {
namespace bench {

// ---------------------------------------------------------------------------
// Flags

/** One accepted flag. A flag with an empty `metavar` is a switch. */
struct Flag
{
    std::string name;
    std::string metavar;
    /** What a valid value looks like, for the error message. */
    std::string want;
    /** Store the value (nullptr for a switch); false if malformed. */
    std::function<bool(const char *)> set;
    bool repeatable = false;
};

/** `text` as a whole decimal integer in [min, max]. */
inline bool
parseInt(const char *text, int64_t min, int64_t max, int64_t *out)
{
    const char *digits = text[0] == '-' ? text + 1 : text;
    if (*digits < '0' || *digits > '9')
        return false;
    errno = 0;
    char *end = nullptr;
    long long v = std::strtoll(text, &end, 10);
    if (*end != '\0' || errno == ERANGE || v < min || v > max)
        return false;
    *out = v;
    return true;
}

/** `text` as a whole unsigned 64-bit integer (decimal, 0x hex or 0
 * octal, as strtoull base 0 reads them; no sign). */
inline bool
parseU64(const char *text, uint64_t *out)
{
    if (text[0] < '0' || text[0] > '9')
        return false;
    errno = 0;
    char *end = nullptr;
    unsigned long long v = std::strtoull(text, &end, 0);
    if (*end != '\0' || errno == ERANGE)
        return false;
    *out = v;
    return true;
}

inline Flag
flag(std::string name, bool *on)
{
    return {std::move(name), "", "", [on](const char *) {
                *on = true;
                return true;
            }};
}

inline Flag
flag(std::string name, std::string metavar, std::string *out)
{
    return {std::move(name), std::move(metavar), "", [out](const char *v) {
                *out = v;
                return true;
            }};
}

/** An int flag; values below `min` are rejected. */
inline Flag
flag(std::string name, std::string metavar, int *out, int min)
{
    return {std::move(name), std::move(metavar),
            "an integer >= " + std::to_string(min), [out, min](const char *v) {
                int64_t parsed = 0;
                if (!parseInt(v, min, std::numeric_limits<int>::max(),
                              &parsed))
                    return false;
                *out = static_cast<int>(parsed);
                return true;
            }};
}

/** An optional unsigned flag: set once given. */
inline Flag
flag(std::string name, std::string metavar, std::optional<uint64_t> *out)
{
    return {std::move(name), std::move(metavar), "an unsigned integer",
            [out](const char *v) {
                uint64_t parsed = 0;
                if (!parseU64(v, &parsed))
                    return false;
                *out = parsed;
                return true;
            }};
}

/** A repeatable unsigned flag: every occurrence appends. */
inline Flag
flag(std::string name, std::string metavar, std::vector<uint64_t> *out)
{
    return {std::move(name), std::move(metavar), "an unsigned integer",
            [out](const char *v) {
                uint64_t parsed = 0;
                if (!parseU64(v, &parsed))
                    return false;
                out->push_back(parsed);
                return true;
            },
            true};
}

/** The flags most benches share. */
struct CommonFlags
{
    bool smoke = false;
    std::string jsonPath;
    std::string baselinePath;
    int threads = 0; ///< Host worker threads; 0 = one per hardware thread.
    /** PU backend. Every backend is bit-identical, so switching must not
     * change any reported number except host wall-clock. */
    system::PuBackend backend = system::PuBackend::Fast;

    const char *backendName() const
    {
        return system::puBackendName(backend);
    }
};

inline Flag
smokeFlag(CommonFlags &f)
{
    return flag("--smoke", &f.smoke);
}

inline Flag
jsonFlag(CommonFlags &f)
{
    return flag("--json", "PATH", &f.jsonPath);
}

inline Flag
baselineFlag(CommonFlags &f)
{
    return flag("--baseline", "PATH", &f.baselinePath);
}

inline Flag
threadsFlag(CommonFlags &f)
{
    return flag("--threads", "N", &f.threads, 0);
}

inline Flag
backendFlag(CommonFlags &f)
{
    return {"--backend", system::kPuBackendChoices,
            std::string("one of ") + system::kPuBackendChoices,
            [&f](const char *v) {
                auto parsed = system::parsePuBackend(v);
                if (parsed)
                    f.backend = *parsed;
                return parsed.has_value();
            }};
}

/** "usage: PROG [--smoke] [--json PATH] [--seed S]..." */
inline std::string
usage(const char *prog, const std::vector<Flag> &table)
{
    std::string line = std::string("usage: ") + prog;
    for (const Flag &f : table) {
        line += " [" + f.name;
        if (!f.metavar.empty())
            line += " " + f.metavar;
        line += f.repeatable ? "]..." : "]";
    }
    return line;
}

/**
 * Apply argv to `table`. On an unknown flag, a missing value or a
 * malformed one, prints what was wrong and the usage line to stderr and
 * returns false; the bench then exits 2.
 */
inline bool
parseFlags(int argc, char **argv, const std::vector<Flag> &table)
{
    auto fail = [&](const std::string &why) {
        std::fprintf(stderr, "%s\n%s\n", why.c_str(),
                     usage(argv[0], table).c_str());
        return false;
    };
    for (int i = 1; i < argc; ++i) {
        const Flag *f = nullptr;
        for (const Flag &candidate : table)
            if (candidate.name == argv[i])
                f = &candidate;
        if (!f)
            return fail(std::string("unknown flag ") + argv[i]);
        if (f->metavar.empty()) {
            f->set(nullptr);
            continue;
        }
        if (i + 1 >= argc)
            return fail(f->name + " needs a value");
        const char *value = argv[++i];
        if (!f->set(value))
            return fail("bad value '" + std::string(value) + "' for " +
                        f->name + " (want " + f->want + ")");
    }
    return true;
}

// ---------------------------------------------------------------------------
// BENCH_*.json

/** Schema version of the metadata block below. Bump when a key is
 * renamed or removed (additions are backwards-compatible: replay and
 * CI consumers look keys up by name).
 * v3: cluster provenance (devices, link_latency_cycles, link_gbps). */
constexpr int kBenchJsonVersion = 3;

#ifndef FLEET_GIT_SHA
#define FLEET_GIT_SHA "unknown"
#endif

/**
 * Write the run-provenance keys shared by every BENCH_*.json, first in
 * the root object: which bench, which commit, which PU backend, and how
 * many host threads, so an artifact downloaded from CI is attributable
 * without its workflow context. `threads` is the configured worker
 * count (0 = one per hardware thread); pass -1 for benches where host
 * threading does not apply. Cluster provenance (v3): `devices` is the
 * simulated device count, and `link_latency` / `link_gbps` describe the
 * inter-device link model when devices > 1 (0 otherwise).
 */
inline void
runMetadata(json::Writer &w, const char *bench_name, const char *backend,
            int threads, int devices = 1, uint64_t link_latency = 0,
            double link_gbps = 0.0)
{
    w.field("bench", bench_name);
    w.field("bench_version", kBenchJsonVersion);
    w.field("git_sha", FLEET_GIT_SHA);
    w.field("backend", backend);
    if (threads >= 0)
        w.field("threads", threads);
    w.field("devices", devices);
    w.field("link_latency_cycles", link_latency);
    w.field("link_gbps", link_gbps, 3);
    w.field("host_hardware_threads", std::thread::hardware_concurrency());
#ifdef NDEBUG
    w.field("release_build", true);
#else
    w.field("release_build", false);
#endif
}

/** Write `text` to `path`; prints "wrote PATH" or the failure. */
inline bool
writeFile(const std::string &path, const std::string &text)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    bool ok = f && std::fwrite(text.data(), 1, text.size(), f) ==
                       text.size();
    if (f && std::fclose(f) != 0)
        ok = false;
    if (!ok) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return false;
    }
    std::printf("wrote %s\n", path.c_str());
    return true;
}

// ---------------------------------------------------------------------------
// Exact replay (--baseline)

/** What a replay compares: in the array `rows` of the root object, the
 * row whose `key` member matches must carry the same `metric` text. */
struct ReplaySpec
{
    const char *rows;
    const char *key;
    const char *metric;
};

namespace detail {

/** A row's name for messages: key=value as printed. */
inline std::string
rowName(const ReplaySpec &spec, const json::Value &row)
{
    const json::Value *key = row.find(spec.key);
    std::string value =
        !key ? "?" : key->isString() ? key->str : key->text;
    return std::string(spec.key) + "=" + value;
}

/** The `rows` array of `root`, or null. */
inline const json::Value *
rowsOf(const ReplaySpec &spec, const json::Value &root)
{
    const json::Value *rows = root.find(spec.rows);
    return rows && rows->isArray() ? rows : nullptr;
}

} // namespace detail

/**
 * Replay `current` (this run's BENCH_*.json text) against the baseline
 * file at `path`. Returns one message per failure, each naming the
 * row(s) it concerns; empty when every current row is found in the
 * baseline with the identical metric text. Rows only in the baseline
 * are ignored.
 */
inline std::vector<std::string>
replayBaseline(const std::string &path, const std::string &current,
               const ReplaySpec &spec)
{
    json::Value now;
    std::string error;
    if (!json::parse(current, now, &error) || !detail::rowsOf(spec, now))
        return {"current results have no \"" + std::string(spec.rows) +
                "\" rows (" + error + ")"};
    const json::Value &now_rows = *detail::rowsOf(spec, now);

    auto allRows = [&] {
        std::string names;
        for (const json::Value &row : now_rows.array)
            names += (names.empty() ? "" : ", ") +
                     detail::rowName(spec, row);
        return names.empty() ? std::string("(none)") : names;
    };
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    if (!in)
        return {"cannot read " + path + "; rows not replayed: " + allRows()};
    json::Value base;
    if (!json::parse(text.str(), base, &error))
        return {path + " is not valid JSON (" + error +
                "); rows not replayed: " + allRows()};
    const json::Value *base_rows = detail::rowsOf(spec, base);
    if (!base_rows)
        return {path + " has no \"" + std::string(spec.rows) +
                "\" array; rows not replayed: " + allRows()};

    std::vector<std::string> problems;
    for (const json::Value &row : now_rows.array) {
        std::string name = detail::rowName(spec, row);
        const json::Value *key = row.find(spec.key);
        const json::Value *metric = row.find(spec.metric);
        const json::Value *match = nullptr;
        for (const json::Value &candidate : base_rows->array) {
            const json::Value *k = candidate.find(spec.key);
            if (key && k && k->kind == key->kind && k->str == key->str &&
                k->text == key->text) {
                match = &candidate;
                break;
            }
        }
        if (!match) {
            problems.push_back(name + ": missing from " + path);
            continue;
        }
        const json::Value *was = match->find(spec.metric);
        if (!was || !was->isNumber()) {
            problems.push_back(name + ": no " + spec.metric +
                               " number in " + path);
            continue;
        }
        std::string is = metric ? metric->text : "?";
        if (was->text != is)
            problems.push_back(name + ": " + spec.metric + " changed: " +
                               was->text + " -> " + is);
    }
    return problems;
}

/** replayBaseline() with the verdict printed; true when it passed. */
inline bool
checkBaseline(const std::string &path, const std::string &current,
              const ReplaySpec &spec)
{
    std::vector<std::string> problems = replayBaseline(path, current, spec);
    for (const std::string &p : problems)
        std::fprintf(stderr, "baseline: %s\n", p.c_str());
    if (!problems.empty())
        return false;
    json::Value now;
    json::parse(current, now);
    std::printf("baseline: %s unchanged in all %zu %s rows (vs %s)\n",
                spec.metric, detail::rowsOf(spec, now)->array.size(),
                spec.rows, path.c_str());
    return true;
}

// ---------------------------------------------------------------------------
// Determinism crosscheck

/**
 * Replay a reference point with `opts` changed to 1 host thread, to 2
 * host threads, and to the `other` backend, and require `replay` to
 * return a signature equal to `reference` each time. `opts` is the
 * bench's options (derived from CommonFlags); `scope` prefixes each
 * variant in the printed verdicts ("fifo/"), `noun` names the
 * signature's elements ("per-job tuples").
 */
template <typename Options, typename Signature, typename Replay>
bool
crosscheckDeterminism(const Options &opts, system::PuBackend other,
                      const std::string &scope, const char *noun,
                      const Signature &reference, Replay replay)
{
    struct Variant
    {
        std::string what;
        system::PuBackend backend;
        int threads;
    };
    const Variant variants[] = {
        {"1 host thread", opts.backend, 1},
        {"2 host threads", opts.backend, 2},
        {std::string(system::puBackendName(other)) + " backend", other,
         opts.threads},
    };
    bool ok = true;
    for (const Variant &variant : variants) {
        Options vopts = opts;
        vopts.backend = variant.backend;
        vopts.threads = variant.threads;
        Signature signature = replay(vopts);
        if (signature != reference) {
            std::fprintf(stderr,
                         "DETERMINISM VIOLATION: %s%s: %s diverged from "
                         "the reference run\n",
                         scope.c_str(), variant.what.c_str(), noun);
            ok = false;
        } else {
            std::printf("determinism: %s%s: %zu %s bit-identical\n",
                        scope.c_str(), variant.what.c_str(),
                        signature.size(), noun);
        }
    }
    return ok;
}

// ---------------------------------------------------------------------------
// Open-loop release

/**
 * Release `arrivals` into `service` on the simulated clock and pump it
 * until every job is done; returns one ticket per arrival, in order.
 * Job j is submitted (stream `streams[j]`, options `optionsFor(j)`)
 * once the session clock plus a warp offset reaches its arrival cycle.
 * The session clock only advances while jobs run, so whenever the
 * service goes idle before the next arrival, the offset warps forward
 * to it (standard event-driven queue simulation); within busy periods
 * arrival spacing is preserved exactly. `offset` is the starting warp:
 * 0 keeps the schedule's own origin, arrivals.front().cycle starts the
 * session at the first arrival.
 */
template <typename OptionsFor>
std::vector<serve::JobTicket>
releaseOpenLoop(serve::FleetService &service,
                const std::vector<serve::Arrival> &arrivals,
                std::vector<BitBuffer> streams, uint64_t offset,
                OptionsFor optionsFor)
{
    std::vector<serve::JobTicket> tickets;
    tickets.reserve(arrivals.size());
    size_t next = 0;
    for (;;) {
        uint64_t now = service.stats().simCycles;
        while (next < arrivals.size() &&
               arrivals[next].cycle <= now + offset) {
            tickets.push_back(service.submitAt(
                std::move(streams[next]), arrivals[next].cycle - offset,
                optionsFor(next)));
            ++next;
        }
        if (service.pump())
            continue;
        if (next >= arrivals.size())
            break;
        uint64_t vnow = now + offset;
        if (arrivals[next].cycle > vnow)
            offset += arrivals[next].cycle - vnow;
    }
    return tickets;
}

// ---------------------------------------------------------------------------
// Latency statistics

/** Nearest-rank percentile of ascending `sorted`: the element at
 * floor(q * size), clamped to the last; 0 when empty. */
inline uint64_t
percentile(const std::vector<uint64_t> &sorted, double q)
{
    if (sorted.empty())
        return 0;
    size_t rank = static_cast<size_t>(q * double(sorted.size()));
    if (rank >= sorted.size())
        rank = sorted.size() - 1;
    return sorted[rank];
}

} // namespace bench
} // namespace fleet

#endif // FLEET_BENCH_HARNESS_H
