#include "client/session.h"

#include <algorithm>

namespace orchestra::client {

/// Shared session core. Publisher callbacks capture this by shared_ptr, so a
/// Session destroyed with work in flight stays safe: late completions land
/// in the Impl (resolving their tickets) instead of a dead object.
struct Session::Impl {
  storage::StorageService* storage = nullptr;
  storage::Publisher* publisher = nullptr;
  query::QueryService* query = nullptr;
  SessionOptions opts;

  struct Entry {
    uint64_t id = 0;
    storage::UpdateBatch batch;  // moved out at launch
    Pending<storage::Epoch> ticket;
    storage::Publisher::Handle handle;  // retained until resolution
  };

  uint64_t next_id = 1;
  std::deque<std::shared_ptr<Entry>> queue;      // submitted, not launched
  std::vector<std::shared_ptr<Entry>> inflight;  // launched, unresolved
  // Chain tail: the most recently launched publish; the next launch chains
  // onto it (the publisher falls back to discovery if it already resolved).
  storage::Publisher::Handle chain_tail;
  size_t effective_window = 1;
  storage::Epoch last_epoch = 0;
  std::vector<Pending<storage::Epoch>> flush_waiters;
  Stats stats;
  bool pumping = false;
  bool repump = false;
};

Session::Session(storage::StorageService* storage, storage::Publisher* publisher,
                 query::QueryService* query, SessionOptions options)
    : impl_(std::make_shared<Impl>()) {
  impl_->storage = storage;
  impl_->publisher = publisher;
  impl_->query = query;
  impl_->opts = options;
  impl_->opts.max_window = std::max<size_t>(1, impl_->opts.max_window);
  if (options.participant != 0) publisher->set_participant(options.participant);
  impl_->effective_window = impl_->opts.max_window;
  impl_->stats.min_window_seen = impl_->effective_window;
}

Session::~Session() {
  // Break the ticket <-> publish-state retention cycle for anything still
  // unresolved; the publisher's own callbacks keep working against the
  // shared Impl if the simulation is driven further.
  AbortInFlight(Status::Aborted("session destroyed"));
}

namespace {

/// Shrink the window when any peer's recent load hint reaches this.
constexpr uint32_t kLoadHighWatermark = 192;
/// Grow the window back once the worst recent hint is at or below this.
constexpr uint32_t kLoadLowWatermark = 48;

/// Admission control: sample the worst recent peer load hint and adapt the
/// window — halve on a high-watermark breach (multiplicative decrease), grow
/// one step once load clears the low watermark (additive increase).
void UpdateWindow(const std::shared_ptr<Session::Impl>& im) {
  size_t max_window = im->opts.max_window;
  uint32_t load = im->storage->MaxRecentPeerLoad();
  if (load >= kLoadHighWatermark) {
    if (im->effective_window > 1) {
      im->effective_window = std::max<size_t>(1, im->effective_window / 2);
      im->stats.throttle_shrinks += 1;
    }
  } else if (load <= kLoadLowWatermark && im->effective_window < max_window) {
    im->effective_window += 1;
    im->stats.window_grows += 1;
  }
  im->effective_window = std::min(im->effective_window, max_window);
  im->stats.min_window_seen =
      std::min(im->stats.min_window_seen, im->effective_window);
}

void MaybeResolveFlush(const std::shared_ptr<Session::Impl>& im) {
  if (!im->inflight.empty() || !im->queue.empty()) return;
  // Swap before resolving: a waiter's continuation may re-enter the session
  // (Submit + Flush), registering new waiters that belong to the NEXT
  // barrier, not this one.
  std::vector<Pending<storage::Epoch>> ready;
  ready.swap(im->flush_waiters);
  for (auto& w : ready) w.Resolve(Status::OK(), im->last_epoch);
}

void RemoveInflight(const std::shared_ptr<Session::Impl>& im,
                    const std::shared_ptr<Session::Impl::Entry>& e) {
  auto it = std::find(im->inflight.begin(), im->inflight.end(), e);
  if (it != im->inflight.end()) im->inflight.erase(it);
}

void Pump(const std::shared_ptr<Session::Impl>& im);

/// A publish failed: the pipeline behind it is unusable (in-flight
/// successors abort themselves at their write gates; queued batches would
/// chain onto a broken base), so the whole suffix resolves with an error and
/// the caller re-submits it in order. This keeps the epoch -> batch mapping
/// stable across retries — the invariant GC's orphan reasoning rests on.
void FailSuffix(const std::shared_ptr<Session::Impl>& im, const Status& why) {
  im->chain_tail.reset();
  std::deque<std::shared_ptr<Session::Impl::Entry>> cancelled;
  cancelled.swap(im->queue);
  for (auto& e : cancelled) {
    im->stats.failed += 1;
    e->ticket.Resolve(Status::Aborted("cancelled: earlier publish failed: " +
                                      why.ToString()));
  }
}

void Launch(const std::shared_ptr<Session::Impl>& im,
            std::shared_ptr<Session::Impl::Entry> e) {
  im->inflight.push_back(e);
  im->stats.max_in_flight = std::max(im->stats.max_in_flight, im->inflight.size());
  e->handle = im->publisher->PublishChained(
      std::move(e->batch), im->chain_tail,
      [im, e](Status st, storage::Epoch epoch) {
        RemoveInflight(im, e);
        if (e->ticket.done()) {
          // Already aborted (AbortInFlight) — the late completion is noise.
        } else if (st.ok()) {
          im->last_epoch = epoch;
          im->stats.committed += 1;
          e->ticket.Resolve(Status::OK(), epoch);
        } else {
          im->stats.failed += 1;
          FailSuffix(im, st);
          e->ticket.Resolve(st);
        }
        e->handle.reset();
        MaybeResolveFlush(im);
        Pump(im);
      });
  im->chain_tail = e->handle;
}

void Pump(const std::shared_ptr<Session::Impl>& im) {
  // Trampoline: publisher callbacks can fire synchronously (validation
  // errors, empty catalogs) and re-enter Pump from inside Launch.
  if (im->pumping) {
    im->repump = true;
    return;
  }
  im->pumping = true;
  do {
    im->repump = false;
    while (!im->queue.empty() && im->inflight.size() < im->effective_window) {
      UpdateWindow(im);
      if (im->inflight.size() >= im->effective_window) break;
      auto e = im->queue.front();
      im->queue.pop_front();
      Launch(im, e);
    }
    MaybeResolveFlush(im);
  } while (im->repump);
  im->pumping = false;
}

}  // namespace

Ticket Session::Submit(storage::UpdateBatch batch) {
  auto e = std::make_shared<Impl::Entry>();
  e->id = impl_->next_id++;
  e->batch = std::move(batch);
  impl_->stats.submitted += 1;
  impl_->queue.push_back(e);
  Pump(impl_);
  return Ticket{e->id, e->ticket};
}

Pending<storage::Epoch> Session::Flush() {
  Pending<storage::Epoch> p;
  if (impl_->inflight.empty() && impl_->queue.empty()) {
    p.Resolve(Status::OK(), impl_->last_epoch);
    return p;
  }
  impl_->flush_waiters.push_back(p);
  return p;
}

Pending<std::monostate> Session::CreateRelation(const storage::RelationDef& def) {
  Pending<std::monostate> p;
  impl_->publisher->CreateRelation(def, [p](Status st) mutable {
    p.Resolve(std::move(st));
  });
  return p;
}

Pending<std::vector<storage::Tuple>> Session::Retrieve(
    const std::string& relation, storage::Epoch epoch,
    storage::KeyFilter filter) {
  Pending<std::vector<storage::Tuple>> p;
  impl_->storage->Retrieve(relation, epoch, filter,
                           [p](Status st, std::vector<storage::Tuple> rows) mutable {
                             p.Resolve(std::move(st), std::move(rows));
                           });
  return p;
}

Pending<query::QueryResult> Session::Query(const query::PhysicalPlan& plan,
                                           storage::Epoch epoch,
                                           query::QueryOptions options) {
  Pending<query::QueryResult> p;
  if (impl_->query == nullptr) {
    p.Resolve(Status::FailedPrecondition("session has no query service"));
    return p;
  }
  impl_->query->Execute(plan, epoch, options,
                        [p](Status st, query::QueryResult result) mutable {
                          p.Resolve(std::move(st), std::move(result));
                        });
  return p;
}

void Session::AbortInFlight(Status why) {
  auto im = impl_;
  im->chain_tail.reset();
  std::vector<std::shared_ptr<Impl::Entry>> flying;
  flying.swap(im->inflight);
  for (auto& e : flying) {
    e->handle.reset();
    if (!e->ticket.done()) {
      im->stats.failed += 1;
      e->ticket.Resolve(why);
    }
  }
  std::deque<std::shared_ptr<Impl::Entry>> waiting;
  waiting.swap(im->queue);
  for (auto& e : waiting) {
    if (!e->ticket.done()) {
      im->stats.failed += 1;
      e->ticket.Resolve(why);
    }
  }
  MaybeResolveFlush(im);
}

size_t Session::in_flight() const { return impl_->inflight.size(); }
size_t Session::queued() const { return impl_->queue.size(); }
size_t Session::window() const { return impl_->effective_window; }
storage::ParticipantId Session::participant() const {
  return impl_->publisher->participant();
}
storage::Epoch Session::last_epoch() const { return impl_->last_epoch; }
storage::StorageService* Session::storage() const { return impl_->storage; }
const Session::Stats& Session::stats() const { return impl_->stats; }

}  // namespace orchestra::client
