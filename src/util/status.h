#ifndef FLEET_UTIL_STATUS_H
#define FLEET_UTIL_STATUS_H

/**
 * @file
 * Structured error model for the runtime (ISSUE 2). The original failure
 * model was process-wide: any `fatal()` from a controller unwound the
 * whole simulation, so one misbehaving processing unit killed hundreds
 * of healthy ones. `Status` carries a machine-readable code plus a
 * human-readable message, so failures can be *contained* — recorded in a
 * per-channel / per-PU RunReport (system/run_report.h) — instead of
 * thrown across the system boundary.
 *
 * `StatusError` is the exception form for the rare paths that must
 * unwind (a shard's run loop catches it at channel granularity). Codes
 * compare exactly, which the fault-injection determinism suite relies on
 * to assert RunReport equality across host thread counts.
 */

#include <stdexcept>
#include <string>

namespace fleet {

enum class StatusCode
{
    Ok = 0,
    /** Run completed, but on a truncated (short) input stream. */
    StreamTruncated,
    /** PU output exceeded its DRAM output region. */
    OutputOverflow,
    /** A corrupted read beat was caught by the per-beat parity check. */
    ParityError,
    /** Forward-progress watchdog: no token retired and no DRAM beat
     * moved for the configured window. */
    WatchdogStall,
    /** Channel did not finish within SystemConfig::maxCycles. */
    CycleLimitExceeded,
    /** Unexpected framework error escaped to the channel boundary. */
    InternalError,
    /** Caller asked for something the run cannot provide (e.g. a trace
     * export from a run that recorded no events). */
    InvalidArgument,
    /** Host filesystem error while exporting a report artifact. */
    IoError,
    /** API used out of protocol order (run() called twice, results read
     * before a run, a job armed on a busy unit). */
    InvalidState,
    /** Admission control turned the job away: the serving queue was at
     * its configured depth (serve/service.h) and the policy chose to
     * reject rather than block. */
    ResourceExhausted,
    /** The job was dropped from the admission queue to make room for a
     * newer one (ShedOldest policy, serve/service.h). Distinct from
     * ResourceExhausted so callers can tell "you were turned away at
     * the door" from "you were admitted, then evicted". */
    Shed,
    /** The job was abandoned by the service before it could be served:
     * submitted (or parked on admission) after shutdown began. */
    Cancelled,
    /** The job exceeded its per-job deadline (simulated cycles) and was
     * cancelled in-queue or killed mid-flight (ISSUE 7). */
    DeadlineExceeded,
};

const char *statusCodeName(StatusCode code);

/**
 * Failure-recovery taxonomy (ISSUE 7, DESIGN.md §5g). A *transient*
 * failure is one where re-running the same job can plausibly succeed:
 * the fault was in the environment (a corrupted beat caught by parity,
 * a short upload, a stalled or halted channel), not in the job. A
 * *permanent* failure is deterministic for the job itself (malformed
 * input, output overflow with the program's declared maxOutputExpansion
 * honored) or an explicit terminal decision (deadline, shed, cancel) —
 * retrying would reproduce it or violate the decision. `Ok` is neither.
 * serve::FleetService's RetryPolicy re-submits only transient codes.
 */
inline bool
statusCodeTransient(StatusCode code)
{
    switch (code) {
    case StatusCode::ParityError:
    case StatusCode::StreamTruncated:
    case StatusCode::WatchdogStall:
    case StatusCode::CycleLimitExceeded:
    case StatusCode::InternalError:
        return true;
    default:
        return false;
    }
}

struct Status
{
    StatusCode code = StatusCode::Ok;
    std::string message;

    bool ok() const { return code == StatusCode::Ok; }
    /** "[OutputOverflow] PU 3: ..." (or "[Ok]"). */
    std::string toString() const;

    static Status make(StatusCode code, std::string message = {})
    {
        return Status{code, std::move(message)};
    }
};

inline bool
operator==(const Status &a, const Status &b)
{
    return a.code == b.code && a.message == b.message;
}
inline bool
operator!=(const Status &a, const Status &b)
{
    return !(a == b);
}

/** Exception wrapper for unwinding paths; caught at channel granularity
 * by ChannelShard::step(). */
class StatusError : public std::runtime_error
{
  public:
    explicit StatusError(Status status)
        : std::runtime_error(status.toString()), status_(std::move(status))
    {
    }

    const Status &status() const { return status_; }

  private:
    Status status_;
};

} // namespace fleet

#endif // FLEET_UTIL_STATUS_H
