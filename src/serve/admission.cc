#include "serve/admission.h"

#include <algorithm>
#include <sstream>

#include "support/logging.h"

namespace ft {

namespace {

/** Structured rejection reason: one line, machine-splittable. */
std::string
reasonLine(const char *code, const std::string &why, size_t depth)
{
    std::ostringstream oss;
    oss << "code=" << code << " depth=" << depth << " why=\"" << why
        << "\"";
    return oss.str();
}

} // namespace

const char *
priorityName(RequestPriority priority)
{
    return priority == RequestPriority::Interactive ? "interactive"
                                                    : "batch";
}

const char *
admissionOutcomeName(AdmissionOutcome outcome)
{
    switch (outcome) {
      case AdmissionOutcome::Admitted: return "admitted";
      case AdmissionOutcome::Shed: return "shed";
      case AdmissionOutcome::Brownout: return "brownout";
      case AdmissionOutcome::BreakerOpen: return "breaker_open";
    }
    return "?";
}

AdmissionController::AdmissionController(const AdmissionOptions &options)
    : options_(options)
{
    FT_ASSERT(options_.workers >= 1, "admission needs at least one worker");
    FT_ASSERT(options_.maxQueueDepth >= 1, "admission queue must hold work");
    FT_ASSERT(options_.costEwmaAlpha > 0.0 && options_.costEwmaAlpha <= 1.0,
              "cost EWMA weight must be in (0, 1]");
    workerFreeAt_.assign(static_cast<size_t>(options_.workers), 0.0);
    if (options_.metrics) {
        MetricsRegistry *m = options_.metrics;
        admitted_ = &m->counter("admission.admitted");
        shedQueueFull_ = &m->counter("admission.shed_queue_full");
        shedDeadline_ = &m->counter("admission.shed_deadline");
        brownouts_ = &m->counter("admission.brownouts");
        breakerRejects_ = &m->counter("admission.breaker_rejects");
        breakersOpened_ = &m->counter("admission.breakers_opened");
        queueDepthHist_ = &m->histogram(
            "admission.queue_depth",
            {0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0});
    }
}

double
AdmissionController::predictedCostLocked() const
{
    const double base =
        costObserved_ ? costEwma_ : options_.defaultCostSeconds;
    return base * options_.safetyFactor;
}

AdmissionDecision
AdmissionController::admit(const std::string &opKey,
                           RequestPriority priority, double now,
                           double deadline)
{
    AdmissionDecision out;
    MutexLock lock(mu_);
    const size_t depth = inflight_.size();
    if (queueDepthHist_)
        queueDepthHist_->observe(static_cast<double>(depth));

    auto tracePoint = [&](const char *name, const std::string &reason) {
        if (options_.trace) {
            options_.trace->point(name, now,
                                  {tstr("op", opKey),
                                   tstr("pri", priorityName(priority)),
                                   tint("depth",
                                        static_cast<int64_t>(depth)),
                                   tstr("reason", reason)});
        }
    };

    // 1. Circuit breaker: a quarantined spec is rejected outright; at
    // the end of the cooldown exactly one probe passes through. The
    // probe flag is set only if the request actually gets admitted —
    // a shed probe must not block the next one.
    Breaker *probe = nullptr;
    auto bit = breakers_.find(opKey);
    if (bit != breakers_.end() && bit->second.open) {
        Breaker &b = bit->second;
        if (now < b.openUntil || b.probing) {
            out.outcome = AdmissionOutcome::BreakerOpen;
            out.reason = reasonLine(
                "FT-ADM-BREAKER",
                b.probing ? "breaker half-open, probe already in flight"
                          : "op key quarantined after repeated failures",
                depth);
            ++statBreakerRejects_;
            if (breakerRejects_)
                breakerRejects_->add();
            tracePoint("admission.breaker_reject", out.reason);
            return out;
        }
        probe = &b;
    }

    // 2. Bounded queue with priority headroom: Batch sheds early so a
    // flood of tunes can never starve interactive lookups.
    const size_t reserve =
        std::min(options_.interactiveReserve, options_.maxQueueDepth - 1);
    const size_t limit = priority == RequestPriority::Interactive
                             ? options_.maxQueueDepth
                             : options_.maxQueueDepth - reserve;
    if (depth >= limit) {
        out.outcome = AdmissionOutcome::Shed;
        out.reason = reasonLine("FT-ADM-QUEUE-FULL",
                                std::string("admission queue full for ") +
                                    priorityName(priority) + " class",
                                depth);
        ++statShedQueueFull_;
        if (shedQueueFull_)
            shedQueueFull_->add();
        tracePoint("admission.shed", out.reason);
        return out;
    }

    // 3. Brownout: saturated past the brownout depth, fresh tuning work
    // is refused and the caller answers from caches only.
    if (depth >= options_.brownoutDepth) {
        out.outcome = AdmissionOutcome::Brownout;
        out.reason = reasonLine("FT-ADM-BROWNOUT",
                                "queue saturated; serve from caches only",
                                depth);
        ++statBrownouts_;
        if (brownouts_)
            brownouts_->add();
        tracePoint("admission.brownout", out.reason);
        return out;
    }

    // 4. Deadline feasibility on the virtual worker timeline: reserve
    // the earliest-free worker and check the predicted finish.
    int worker = 0;
    for (int i = 1; i < options_.workers; ++i) {
        if (workerFreeAt_[static_cast<size_t>(i)] <
            workerFreeAt_[static_cast<size_t>(worker)])
            worker = i;
    }
    const double start =
        std::max(now, workerFreeAt_[static_cast<size_t>(worker)]);
    const double cost = predictedCostLocked();
    const double finish = start + cost;
    if (finish > deadline) {
        out.outcome = AdmissionOutcome::Shed;
        std::ostringstream why;
        why << "predicted finish +"
            << finish - now << "s misses deadline +" << deadline - now
            << "s";
        out.reason = reasonLine("FT-ADM-DEADLINE", why.str(), depth);
        out.predictedStart = start;
        out.predictedFinish = finish;
        ++statShedDeadline_;
        if (shedDeadline_)
            shedDeadline_->add();
        tracePoint("admission.shed", out.reason);
        return out;
    }

    if (probe)
        probe->probing = true;
    out.outcome = AdmissionOutcome::Admitted;
    out.ticket = nextTicket_++;
    out.predictedStart = start;
    out.predictedFinish = finish;
    out.budgetSeconds = deadline - now;
    workerFreeAt_[static_cast<size_t>(worker)] = finish;
    inflight_[out.ticket] = Ticket{now, worker, finish};
    ++statAdmitted_;
    if (admitted_)
        admitted_->add();
    if (options_.trace) {
        options_.trace->point(
            "admission.admit", now,
            {tstr("op", opKey), tstr("pri", priorityName(priority)),
             tint("depth", static_cast<int64_t>(depth)),
             treal("predicted_finish", finish),
             tint("ticket", static_cast<int64_t>(out.ticket))});
    }
    return out;
}

void
AdmissionController::onComplete(const std::string &opKey, uint64_t ticket,
                                double now, bool success)
{
    MutexLock lock(mu_);
    auto it = inflight_.find(ticket);
    FT_ASSERT(it != inflight_.end(), "unknown admission ticket ", ticket);
    const Ticket t = it->second;
    inflight_.erase(it);
    // A request that finished early releases its reservation so later
    // admissions see the real horizon, not the pessimistic one.
    if (now < t.reservedFinish &&
        workerFreeAt_[static_cast<size_t>(t.worker)] == t.reservedFinish)
        workerFreeAt_[static_cast<size_t>(t.worker)] = now;

    const double duration = std::max(0.0, now - t.admittedAt);
    if (!costObserved_) {
        costEwma_ = duration;
        costObserved_ = true;
    } else {
        costEwma_ = options_.costEwmaAlpha * duration +
                    (1.0 - options_.costEwmaAlpha) * costEwma_;
    }

    // A closed breaker with no failures acts exactly like a missing
    // entry, so success erases it: only failing keys stay tracked.
    if (success) {
        auto bit = breakers_.find(opKey);
        if (bit == breakers_.end())
            return;
        if (bit->second.open && options_.trace)
            options_.trace->point("admission.breaker_close", now,
                                  {tstr("op", opKey)});
        breakers_.erase(bit);
    } else {
        Breaker &b = breakers_[opKey];
        ++b.consecutiveFailures;
        b.probing = false;
        if (b.consecutiveFailures >= options_.breakerFailureThreshold) {
            if (!b.open) {
                ++statBreakersOpened_;
                if (breakersOpened_)
                    breakersOpened_->add();
            }
            b.open = true;
            b.openUntil = now + options_.breakerCooldownSeconds;
            if (options_.trace) {
                options_.trace->point(
                    "admission.breaker_open", now,
                    {tstr("op", opKey),
                     tint("failures", b.consecutiveFailures),
                     treal("until", b.openUntil)});
            }
        }
    }
}

bool
AdmissionController::breakerOpen(const std::string &opKey, double now) const
{
    MutexLock lock(mu_);
    auto it = breakers_.find(opKey);
    if (it == breakers_.end() || !it->second.open)
        return false;
    return now < it->second.openUntil || it->second.probing;
}

AdmissionStats
AdmissionController::stats() const
{
    AdmissionStats out;
    MutexLock lock(mu_);
    out.admitted = statAdmitted_;
    out.shedQueueFull = statShedQueueFull_;
    out.shedDeadline = statShedDeadline_;
    out.brownouts = statBrownouts_;
    out.breakerRejects = statBreakerRejects_;
    out.breakersOpened = statBreakersOpened_;
    out.queueDepth = inflight_.size();
    out.trackedBreakers = breakers_.size();
    for (const auto &[key, b] : breakers_) {
        (void)key;
        if (b.open)
            ++out.openBreakers;
    }
    out.costEstimate = costObserved_ ? costEwma_ : 0.0;
    return out;
}

} // namespace ft
