#include "service/admission.hh"

#include <algorithm>

#include "common/logging.hh"

namespace canon
{
namespace service
{

std::size_t
pickNext(const std::vector<Ticket> &waiting,
         const std::map<std::string, std::uint64_t> &admitted)
{
    panicIf(waiting.empty(), "pickNext on an empty waiting list");
    auto servedOf = [&](const Ticket &t) -> std::uint64_t {
        auto it = admitted.find(t.client);
        return it == admitted.end() ? 0 : it->second;
    };
    std::size_t best = 0;
    for (std::size_t i = 1; i < waiting.size(); ++i) {
        const Ticket &a = waiting[i], &b = waiting[best];
        if (a.priority != b.priority) {
            if (a.priority > b.priority)
                best = i;
            continue;
        }
        const std::uint64_t sa = servedOf(a), sb = servedOf(b);
        if (sa != sb) {
            if (sa < sb)
                best = i;
            continue;
        }
        if (a.seq < b.seq)
            best = i;
    }
    return best;
}

AdmissionQueue::AdmissionQueue(int max_active)
    : max_active_(std::max(1, max_active))
{
}

Ticket
AdmissionQueue::enqueue(int priority, const std::string &client)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Ticket t;
    t.seq = next_seq_++;
    t.priority = priority;
    t.client = client;
    waiting_.push_back(t);
    grantLocked();
    return t;
}

void
AdmissionQueue::grantLocked()
{
    // Move tickets from waiting to granted while slots remain; the
    // grantee may be any waiter, so every grant notifies all.
    bool granted_any = false;
    while (active_ < max_active_ && !waiting_.empty()) {
        const std::size_t i = pickNext(waiting_, admitted_);
        ++active_;
        ++admitted_[waiting_[i].client];
        granted_.push_back(waiting_[i].seq);
        waiting_.erase(waiting_.begin() +
                       static_cast<std::ptrdiff_t>(i));
        granted_any = true;
    }
    if (granted_any)
        cv_.notify_all();
}

bool
AdmissionQueue::awaitGrant(const Ticket &ticket)
{
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        auto it = std::find(granted_.begin(), granted_.end(),
                            ticket.seq);
        if (it != granted_.end()) {
            granted_.erase(it);
            return true;
        }
        if (closed_) {
            // Forget the ticket whether it was still waiting or
            // never enqueued; a closed queue grants nothing.
            auto w = std::find_if(waiting_.begin(), waiting_.end(),
                                  [&](const Ticket &t) {
                                      return t.seq == ticket.seq;
                                  });
            if (w != waiting_.end())
                waiting_.erase(w);
            return false;
        }
        cv_.wait(lock);
    }
}

void
AdmissionQueue::release()
{
    std::lock_guard<std::mutex> lock(mutex_);
    panicIf(active_ <= 0, "AdmissionQueue::release without a grant");
    --active_;
    grantLocked();
}

void
AdmissionQueue::close()
{
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
    cv_.notify_all();
}

std::size_t
AdmissionQueue::waitingCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return waiting_.size();
}

int
AdmissionQueue::activeCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return active_;
}

} // namespace service
} // namespace canon
