/**
 * @file
 * Conservative parallel discrete-event engine: N event lanes (one
 * Simulator each, one sys::Machine per lane in practice),
 * synchronized only at lookahead horizons.
 *
 * The classic conservative argument (Chandy/Misra lookahead): pick
 * horizon = (earliest pending event across all lanes) + lookahead,
 * where lookahead is a lower bound on cross-lane latency (the wire).
 * Every event that fires inside the window does so at t >= the global
 * minimum, so any message it sends lands at t + wire >= horizon —
 * strictly outside the window. No lane sees a message from the
 * "future", and messages are exchanged only at the barrier between
 * windows.
 *
 * Execution path, picked from the lookahead alone:
 *  - coupled lanes (finite lookahead, every sys::Cluster) run each
 *    window inline on the calling thread, in lane order. A coupled
 *    window holds 1.6 to 11 events on the shipped benches, less work
 *    than two cross-thread handoffs cost, so threads cannot win there;
 *  - uncoupled lanes (the kNoEvent default: a parameter sweep, one
 *    independent run per lane) finish in a single window, which runs
 *    on min(threads, lanes) threads started for that call and joined
 *    before it returns. Uncoupled lanes may not send mail.
 *
 * Determinism: runs are byte-identical regardless of thread count.
 *  - a lane is plain single-threaded Simulator code in any window;
 *  - the horizon sequence depends only on event timestamps;
 *  - mailboxes are drained only at window barriers, so a message
 *    sent during window W is scheduled in exactly one batch (the
 *    W -> W+1 barrier). With wire == lookahead a message lands
 *    exactly on the horizon, and this keeps it out of window W;
 *  - each barrier batch is sorted by (when, src lane, sender seq) — a
 *    total order fixed by the simulation itself — so the FIFO
 *    tie-break seq numbers each lane assigns to delivered messages
 *    are reproducible.
 * This is enforced by tests (parallel_test) and by the golden
 * selfperf ctest (--threads 1 vs 4 byte-identical bench JSON).
 */
#ifndef RIO_DES_PARALLEL_H
#define RIO_DES_PARALLEL_H

#include <memory>
#include <vector>

#include "base/types.h"
#include "des/simulator.h"

namespace rio::des {

class ParallelEngine;

/**
 * One event lane: a Simulator plus a timestamped inbox for messages
 * from other lanes. All simulation state driven by this lane's
 * events must be touched only from its callbacks; the inbox is the
 * only way in from another lane.
 */
class Lane
{
  public:
    Lane(u32 id, const ParallelEngine &engine) : id_(id), engine_(engine)
    {
    }

    Lane(const Lane &) = delete;
    Lane &operator=(const Lane &) = delete;

    u32 id() const { return id_; }
    Simulator &sim() { return sim_; }
    const Simulator &sim() const { return sim_; }

    /**
     * Post @p fn to run on @p dst at absolute time @p when — the wire
     * crossing. Called from this lane's event callbacks (or setup);
     * @p when must be >= the current window's horizon (guaranteed by
     * construction when the wire latency is >= the engine lookahead,
     * asserted at delivery). Dies if the engine's lookahead is still
     * infinite: uncoupled lanes run on several threads, and only
     * coupled (inline) lanes may share an inbox.
     */
    void sendTo(Lane &dst, Nanos when, Simulator::Callback fn);

    /** Messages this lane has received and scheduled. */
    u64 mailDelivered() const { return mail_delivered_; }

  private:
    friend class ParallelEngine;

    struct Mail
    {
        Nanos when;
        u32 src;
        u64 seq;   //!< sender-assigned, monotone per sender
        u64 trace; //!< sender's trace context, restored at delivery
        Simulator::Callback fn;
    };

    /** Earliest queued mail timestamp, kNoEvent if none. */
    Nanos earliestMail() const;

    /**
     * Schedule all queued mail into the simulator, sorted by
     * (when, src, seq) so delivery order — and hence the receiving
     * simulator's FIFO tie-break numbering — is fixed by simulation
     * content. Called by the engine only at window barriers (all
     * lanes quiescent), never while a window runs.
     */
    void drainInbox();

    u32 id_;
    const ParallelEngine &engine_;
    Simulator sim_;
    u64 send_seq_ = 0;
    u64 mail_delivered_ = 0;
    std::vector<Mail> inbox_;
};

/**
 * Drives N lanes. Single-use pattern: construct, addLane() repeatedly
 * (main thread, before running), run()/runUntil(). Coupled lanes
 * always run inline; @p threads only spreads an uncoupled window.
 */
class ParallelEngine
{
  public:
    /** @p threads total workers for an uncoupled window, including
     * the caller (min 1). */
    explicit ParallelEngine(unsigned threads = 1);

    ParallelEngine(const ParallelEngine &) = delete;
    ParallelEngine &operator=(const ParallelEngine &) = delete;

    /** Create the next lane (ids are dense, in creation order). */
    Lane &addLane();

    Lane &lane(size_t i) { return *lanes_[i]; }
    size_t laneCount() const { return lanes_.size(); }
    unsigned threads() const { return threads_; }

    /**
     * Conservative window size: a lower bound on the latency of any
     * cross-lane message. Must be set (finite) before the first
     * sendTo; uncoupled lanes keep the kNoEvent default and finish
     * in one window.
     */
    void setLookahead(Nanos l) { lookahead_ = l; }
    Nanos lookahead() const { return lookahead_; }

    /** Run until every lane is idle and all mail is delivered. */
    void run();

    /** Run until simulated time @p deadline (every lane's clock ends
     * at @p deadline, like Simulator::runUntil). */
    void runUntil(Nanos deadline);

    // ---- introspection (read after run; summed at barriers) ------------
    /** Horizon windows executed. */
    u64 rounds() const { return rounds_; }

    /** Events run across all lanes. */
    u64 eventsRun() const;

    /** Cross-lane messages delivered across all lanes. */
    u64 messagesDelivered() const;

  private:
    /** Earliest pending work (event or queued mail) across lanes. */
    Nanos nextTime();

    /** Deliver queued mail (barrier; all lanes quiescent), then run
     * one window [.., @p window_end] across all lanes. */
    void runWindow(Nanos window_end);

    unsigned threads_;
    Nanos lookahead_ = Simulator::kNoEvent;
    std::vector<std::unique_ptr<Lane>> lanes_;
    u64 rounds_ = 0;
};

} // namespace rio::des

#endif // RIO_DES_PARALLEL_H
