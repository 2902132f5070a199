// client::Session — the single participant-facing API of the system. A
// session is pinned to one node and unifies what used to be three ad-hoc
// layers (Publisher's raw callbacks, StorageService's per-RPC entry points,
// Deployment's synchronous conveniences) behind four verbs:
//
//   Submit(UpdateBatch) -> Ticket          queue a versioned write batch
//   Flush()             -> Pending<Epoch>  barrier: all submitted work done
//   Retrieve(...)       -> Pending<rows>   Algorithm 1 read: a one-scan query
//   Query(...)          -> Pending<result> distributed query execution
//
// Every verb returns a Pending<T> (src/common/pending.h) instead of a bare
// callback; exactly-once completion is inherited from the RPC lifecycle
// layer underneath.
//
// Pipelining: the session keeps up to `max_window` publishes in flight.
// Submitted batches form a FIFO chain — publish N+1 bases itself on publish
// N's in-memory output (Publisher::PublishChained), overlapping its
// prepare stage with N's tuple/page writes while commits stay
// strictly ordered. On a failure the failed ticket AND everything behind it
// (in flight or queued) resolves with an error and the chain resets: the
// caller re-submits the failed suffix in order (same batches — publishing is
// idempotent per batch), exactly the retry discipline the GC sweep's
// same-batch precondition requires.
//
// Admission control: every storage RPC reply carries the responder's load
// hint (its inbox depth). When the worst recent hint reaches a high
// watermark (192) the session halves its window (down to 1) before launching
// more work; when load falls to a low watermark (48) the window recovers one
// step per launch opportunity. No submitted batch is ever
// dropped by throttling — it just waits in the queue.
//
// Multi-writer: a session publishes for exactly one PARTICIPANT
// (SessionOptions::participant; 0 keeps the publisher's default of
// node id + 1). Two-plus sessions with distinct participants may publish
// concurrently against one deployment: each publish claims its epoch before
// writing, and a session that loses an epoch race transparently RE-BASES the
// losing publish (and the pipelined chain behind it) onto the winner's
// committed output — the ticket simply resolves with a later epoch than an
// uncontended run would have produced. Contention never tears an epoch (the
// claim plus the participant-tagged commit gate guarantee one writer per
// epoch) and never reorders this session's own commits. Sessions sharing one
// node's publisher share its participant; give concurrent writers distinct
// nodes or distinct participant ids.
//
// Thread/ordering contract: the whole client stack is single-threaded on the
// simulator loop. Submit/Flush/Retrieve/Query must be called from that
// thread; Pending continuations and ticket resolutions run on it, in
// resolution order. Tickets of one session resolve in submission order for
// successes; a failure resolves the failed ticket and everything behind it
// (Aborted) before Submit returns new work.
#ifndef ORCHESTRA_CLIENT_SESSION_H_
#define ORCHESTRA_CLIENT_SESSION_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "common/pending.h"
#include "query/service.h"
#include "storage/publisher.h"
#include "storage/service.h"

namespace orchestra::client {

struct SessionOptions {
  /// Participant identity this session publishes as. 0 keeps the publisher's
  /// default (node id + 1). Distinct concurrent writers need distinct
  /// participants; a non-zero value is installed on the session's publisher
  /// at construction (one publisher = one participant).
  storage::ParticipantId participant = 0;
  /// Max publishes in flight. >1 enables pipelined chaining; 1 reproduces
  /// the legacy one-at-a-time behavior exactly.
  size_t max_window = 4;
};

/// A submitted publish. `epoch` resolves with the committed epoch, or with
/// the publish's error (Aborted when an earlier ticket in the pipeline
/// failed and this one was cancelled before writing anything).
struct Ticket {
  uint64_t id = 0;
  Pending<storage::Epoch> epoch;
};

class Session {
 public:
  /// Internal shared core (defined in session.cc); public only so the
  /// implementation's helpers can name it.
  struct Impl;

  Session(storage::StorageService* storage, storage::Publisher* publisher,
          query::QueryService* query, SessionOptions options = {});
  /// Destroying a session with work in flight aborts its unresolved tickets
  /// (AbortInFlight) — late publisher completions then land harmlessly in
  /// the shared core instead of keeping abandoned state alive.
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Queues one batch for publishing; launches immediately if the window has
  /// room. Tickets commit (and resolve) strictly in submission order.
  Ticket Submit(storage::UpdateBatch batch);

  /// Barrier: resolves once every previously submitted ticket has resolved
  /// (successfully or not), with the last committed epoch. Per-ticket status
  /// stays authoritative for failures.
  Pending<storage::Epoch> Flush();

  /// Registers a relation cluster-wide (catalog + empty coordinator record).
  Pending<std::monostate> CreateRelation(const storage::RelationDef& def);

  /// Algorithm 1: Retrieve(R, e, f) from this session's node. Runs the plan
  /// Ship(Scan relation), with `filter` as the scan's key filter, on the
  /// node's query executor at `epoch`, and resolves with its rows.
  Pending<std::vector<storage::Tuple>> Retrieve(const std::string& relation,
                                                storage::Epoch epoch,
                                                storage::KeyFilter filter = {});

  /// Distributed query from this session's node, pinned to `epoch`.
  Pending<query::QueryResult> Query(const query::PhysicalPlan& plan,
                                    storage::Epoch epoch,
                                    query::QueryOptions options = {});

  /// Fails every unresolved ticket (queued or in flight) with `why` and
  /// resets the pipeline chain. Used when the session's node dies: the
  /// node's dropped callbacks would otherwise leave tickets pending forever.
  void AbortInFlight(Status why);

  // --- Introspection --------------------------------------------------------
  size_t in_flight() const;
  size_t queued() const;
  /// Current effective window (admission control may hold it below max).
  size_t window() const;
  /// The participant identity this session publishes as.
  storage::ParticipantId participant() const;
  storage::Epoch last_epoch() const;
  storage::StorageService* storage() const;

  struct Stats {
    uint64_t submitted = 0;
    uint64_t committed = 0;
    uint64_t failed = 0;          // includes pipeline-abort cancellations
    uint64_t throttle_shrinks = 0;  // window halvings on load-hint breach
    uint64_t window_grows = 0;
    size_t min_window_seen = 0;   // smallest effective window used
    size_t max_in_flight = 0;
  };
  const Stats& stats() const;

 private:
  std::shared_ptr<Impl> impl_;
};

}  // namespace orchestra::client

#endif  // ORCHESTRA_CLIENT_SESSION_H_
