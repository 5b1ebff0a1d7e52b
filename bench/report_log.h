#ifndef FLEET_BENCH_REPORT_LOG_H
#define FLEET_BENCH_REPORT_LOG_H

/**
 * @file
 * Collect job reports where they leave the runtime. A Session hands each
 * report to the job's completion callback and keeps none, so a bench or
 * test that wants a whole run's reports gathers them here: ReportLog
 * from a Session's callbacks, sessionReports() from a FleetService's
 * tickets. Both come out in session job-id order, the order the
 * determinism fences compare.
 */

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "runtime/session.h"
#include "serve/service.h"

namespace fleet {
namespace bench {

/** Every report a Session's callbacks delivered, indexed by job id. */
class ReportLog
{
  public:
    /** The completion callback to submit each job with. */
    runtime::JobCallback sink()
    {
        return [this](runtime::JobReport report) {
            const uint64_t id = report.jobId;
            if (id >= reports_.size())
                reports_.resize(id + 1);
            reports_[id] = std::move(report);
        };
    }

    const runtime::JobReport &operator[](uint64_t id) const
    {
        return reports_.at(id);
    }
    const std::vector<runtime::JobReport> &all() const { return reports_; }

  private:
    std::vector<runtime::JobReport> reports_;
};

/**
 * Every session job behind `tickets` — each ticket's retried attempts
 * and its final report — sorted by session job id. Tickets that are not
 * ready add nothing, nor do refusals (admission turned them away, so
 * they hold no session job id).
 */
inline std::vector<runtime::JobReport>
sessionReports(const std::vector<serve::JobTicket> &tickets)
{
    std::vector<runtime::JobReport> reports;
    for (const serve::JobTicket &ticket : tickets) {
        if (!ticket.ready())
            continue;
        for (const runtime::JobReport &attempt : ticket.retried())
            reports.push_back(attempt);
        if (ticket.report().jobId != UINT64_MAX)
            reports.push_back(ticket.report());
    }
    std::sort(reports.begin(), reports.end(),
              [](const runtime::JobReport &a, const runtime::JobReport &b) {
                  return a.jobId < b.jobId;
              });
    return reports;
}

} // namespace bench
} // namespace fleet

#endif // FLEET_BENCH_REPORT_LOG_H
