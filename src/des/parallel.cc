#include "des/parallel.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <utility>

#include "base/logging.h"
#include "obs/trace_ctx.h"

namespace rio::des {

void
Lane::sendTo(Lane &dst, Nanos when, Simulator::Callback fn)
{
    RIO_ASSERT(fn, "sending null mail");
    // Uncoupled windows run on several threads with no inbox lock;
    // mail is only safe between lanes that run inline.
    RIO_ASSERT(engine_.lookahead() != Simulator::kNoEvent,
               "cross-lane send on an engine with infinite lookahead");
    // Capture the sender's trace context so the receiving lane's
    // callback — and every event it emits — attributes to the same
    // distributed op. Host-side metadata only.
    dst.inbox_.push_back(
        Mail{when, id_, send_seq_++, obs::currentTrace(), std::move(fn)});
}

Nanos
Lane::earliestMail() const
{
    Nanos t = Simulator::kNoEvent;
    for (const Mail &m : inbox_)
        t = std::min(t, m.when);
    return t;
}

void
Lane::drainInbox()
{
    // Total order fixed by simulation content: timestamp, then
    // sending lane, then the sender's own sequence.
    std::sort(inbox_.begin(), inbox_.end(),
              [](const Mail &a, const Mail &b) {
                  if (a.when != b.when)
                      return a.when < b.when;
                  if (a.src != b.src)
                      return a.src < b.src;
                  return a.seq < b.seq;
              });
    for (Mail &m : inbox_) {
        // The conservative invariant: drains happen at window
        // barriers, where this lane's clock sits exactly at the end
        // of the last window it ran. Mail sent inside that window
        // from an event at t >= window start carries
        // when = t + wire >= start + lookahead = window end, so
        // when >= now() holds (with equality exactly in the
        // wire == lookahead boundary case). Anything earlier means
        // the wire undercut the configured lookahead.
        RIO_ASSERT(m.when >= sim_.now(),
                   "cross-lane message in the past: when=", m.when,
                   " lane now=", sim_.now(),
                   " (wire latency below engine lookahead?)");
        if (m.trace == 0) {
            sim_.scheduleAt(m.when, std::move(m.fn));
        } else {
            // Re-establish the sender's trace context around the
            // delivery so cross-lane hops keep the op attribution.
            sim_.scheduleAt(m.when,
                            [t = m.trace, fn = std::move(m.fn)]() mutable {
                                obs::TraceScope scope(t);
                                fn();
                            });
        }
        ++mail_delivered_;
    }
    inbox_.clear();
}

ParallelEngine::ParallelEngine(unsigned threads)
    : threads_(threads == 0 ? 1 : threads)
{
}

Lane &
ParallelEngine::addLane()
{
    lanes_.push_back(
        std::make_unique<Lane>(static_cast<u32>(lanes_.size()), *this));
    return *lanes_.back();
}

Nanos
ParallelEngine::nextTime()
{
    Nanos next = Simulator::kNoEvent;
    for (auto &l : lanes_) {
        next = std::min(next, l->sim().nextEventTime());
        next = std::min(next, l->earliestMail());
    }
    return next;
}

void
ParallelEngine::runWindow(Nanos window_end)
{
    ++rounds_;
    // Deliver all queued mail before any lane starts the window, in
    // ascending lane order on this thread, while every lane is
    // quiescent: each message is scheduled in exactly one batch — the
    // barrier following the window that sent it.
    for (auto &l : lanes_)
        l->drainInbox();
    // Coupled lanes run inline: a window of a few events is cheaper
    // than handing it to another thread and back.
    const size_t workers =
        lookahead_ == Simulator::kNoEvent
            ? std::min<size_t>(threads_, lanes_.size())
            : 1;
    if (workers <= 1) {
        for (auto &l : lanes_)
            l->sim().runUntil(window_end);
        return;
    }
    // Uncoupled: the one window of this call runs on threads started
    // here, each claiming whole lanes until none are left; the
    // helpers join when they go out of scope, before the counter.
    std::atomic<size_t> next_lane{0};
    auto claimLanes = [&] {
        for (;;) {
            const size_t i =
                next_lane.fetch_add(1, std::memory_order_relaxed);
            if (i >= lanes_.size())
                return;
            lanes_[i]->sim().runUntil(window_end);
        }
    };
    std::vector<std::jthread> helpers;
    helpers.reserve(workers - 1);
    for (size_t i = 1; i < workers; ++i)
        helpers.emplace_back(claimLanes);
    claimLanes();
}

void
ParallelEngine::run()
{
    runUntil(Simulator::kNoEvent);
}

void
ParallelEngine::runUntil(Nanos deadline)
{
    for (;;) {
        const Nanos next = nextTime();
        if (next == Simulator::kNoEvent || next > deadline)
            break;
        // Conservative horizon; saturate instead of wrapping so an
        // "infinite" lookahead or a late event cannot overflow.
        Nanos horizon = Simulator::kNoEvent;
        if (lookahead_ != Simulator::kNoEvent &&
            next <= Simulator::kNoEvent - lookahead_)
            horizon = next + lookahead_;
        runWindow(std::min(horizon, deadline));
    }
    if (deadline != Simulator::kNoEvent) {
        // No runnable work remains before the deadline; advance every
        // lane's clock to it (same contract as Simulator::runUntil).
        for (auto &l : lanes_)
            l->sim().runUntil(deadline);
    }
}

u64
ParallelEngine::eventsRun() const
{
    u64 n = 0;
    for (const auto &l : lanes_)
        n += l->sim().eventsRun();
    return n;
}

u64
ParallelEngine::messagesDelivered() const
{
    u64 n = 0;
    for (const auto &l : lanes_)
        n += l->mailDelivered();
    return n;
}

} // namespace rio::des
