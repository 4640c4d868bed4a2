/**
 * @file
 * Request admission for canond: which submitted job runs next, and
 * how many run at once.
 *
 * The daemon admits at most maxActive submissions into the engine
 * concurrently; everything else waits in this queue. The selection
 * rule, in order:
 *
 *  1. higher priority first (the Submit body's priority field);
 *  2. per-client fairness: among equal priorities, the client with
 *     the fewest admissions so far goes first, so one chatty client
 *     cannot starve the others by keeping the queue full;
 *  3. arrival order (the ticket sequence number) as the tie-break,
 *     which keeps scheduling deterministic for tests.
 *
 * The rule lives in pickNext(), a pure function over the waiting
 * list, so the policy is unit-testable without threads; the blocking
 * acquire/release wrapper is a thin mutex+condvar shell around it.
 *
 * Cost-aware quota: admission itself is cheap, so expensive sweeps
 * are throttled *before* they enqueue -- the daemon runs the
 * engine's plan() (a cache forecast that simulates nothing) and
 * rejects a submission whose predicted simulation-job count exceeds
 * the per-request quota. That check is the daemon's, not this
 * queue's; the predicted cost rides the ticket only for reporting.
 */

#ifndef CANON_SERVICE_ADMISSION_HH
#define CANON_SERVICE_ADMISSION_HH

#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace canon
{
namespace service
{

/** One submission waiting for (or holding) an engine slot. */
struct Ticket
{
    std::uint64_t seq = 0; //!< arrival order, assigned by enqueue()
    int priority = 0;
    std::string client;
};

/**
 * Index into @p waiting of the ticket the policy admits next, per
 * the priority / fairness / arrival rule above. @p admitted maps
 * client name to how many submissions it has already had admitted.
 * Requires a non-empty list.
 */
std::size_t
pickNext(const std::vector<Ticket> &waiting,
         const std::map<std::string, std::uint64_t> &admitted);

class AdmissionQueue
{
  public:
    /** @p max_active is clamped to >= 1. */
    explicit AdmissionQueue(int max_active);

    /**
     * Register a submission and return its ticket (seq assigned).
     * Does not block; pair with awaitGrant().
     */
    Ticket enqueue(int priority, const std::string &client);

    /**
     * Block until @p ticket is granted a slot (per pickNext) or the
     * queue is closed. Returns true on a grant -- the caller now
     * holds a slot and must release() it -- false when the queue
     * closed first (the ticket is forgotten).
     */
    bool awaitGrant(const Ticket &ticket);

    /** Return a granted slot; wakes the next eligible waiter. */
    void release();

    /**
     * Close the queue: every current and future awaitGrant returns
     * false. Slots already granted are unaffected (the daemon drains
     * them separately).
     */
    void close();

    /** Submissions currently waiting (diagnostics/stats). */
    std::size_t waitingCount() const;

    /** Slots currently granted (diagnostics/stats). */
    int activeCount() const;

  private:
    void grantLocked(); //!< admit while slots and waiters remain

    mutable std::mutex mutex_;
    std::condition_variable cv_;
    int max_active_;
    int active_ = 0;
    bool closed_ = false;
    std::uint64_t next_seq_ = 0;
    std::vector<Ticket> waiting_;
    std::vector<std::uint64_t> granted_; //!< seqs granted, unclaimed
    std::map<std::string, std::uint64_t> admitted_;
};

} // namespace service
} // namespace canon

#endif // CANON_SERVICE_ADMISSION_HH
