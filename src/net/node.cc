#include "net/node.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <ranges>
#include <string_view>
#include <tuple>

#include "core/ref_lists.h"
#include "obs/export.h"
#include "sim/digest.h"
#include "storage/persist.h"
#include "util/logging.h"
#include "util/macros.h"

namespace pgrid {
namespace net {

namespace {

/// The node's own id in its address book and PeerState.
constexpr PeerId kSelf = 0;

/// Bound on remote hops one Search may spend before giving up.
constexpr size_t kMaxRouteAttempts = 128;

/// The node's store directory name: its address with every character outside
/// [A-Za-z0-9.-] mapped to '_'.
std::string StoreDirName(std::string address) {
  for (char& c : address) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '-' && c != '.') c = '_';
  }
  return "node-" + address;
}

/// A trace span's detail, `key` followed by `value`; built only when a recorder
/// is attached, since an address often outgrows the inline string buffer.
std::string SpanDetail(const obs::TraceRecorder* trace, std::string_view key,
                       const std::string& value) {
  return trace != nullptr ? std::string(key) + value : std::string();
}

repair::SuspicionTable MakeSuspicionTable(const NodeConfig& config) {
  return repair::SuspicionTable(static_cast<uint32_t>(config.suspicion_threshold),
                                /*slow_threshold=*/0,
                                static_cast<uint32_t>(config.eviction_cooldown));
}

}  // namespace

PGridNode::PGridNode(std::string address, RpcTransport* transport,
                     const NodeConfig& config, uint64_t seed,
                     obs::MetricsRegistry* registry)
    : address_(std::move(address)),
      transport_(transport),
      config_(config),
      state_(kSelf),
      book_(address_),
      suspicion_(MakeSuspicionTable(config)),
      rng_(seed),
      delta_(/*recording=*/config.storage.enabled()) {
  PGRID_CHECK(transport != nullptr);
  PGRID_CHECK(config.Validate().ok());
  if (registry == nullptr) {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    registry = owned_metrics_.get();
  }
  metrics_ = registry;
  c_exchanges_initiated_ = metrics_->GetCounter("node.exchanges_initiated");
  c_exchanges_served_ = metrics_->GetCounter("node.exchanges_served");
  c_queries_served_ = metrics_->GetCounter("node.queries_served");
  c_publishes_served_ = metrics_->GetCounter("node.publishes_served");
  c_entries_adopted_ = metrics_->GetCounter("node.entries_adopted");
  c_route_offline_skips_ = metrics_->GetCounter("node.route_offline_skips");
  c_route_backtracks_ = metrics_->GetCounter("node.route_backtracks");
  c_call_deadline_exceeded_ = metrics_->GetCounter("node.call_deadline_exceeded");
  c_probes_sent_ = metrics_->GetCounter("node.probes_sent");
  c_refs_evicted_ = metrics_->GetCounter("node.refs_evicted");
  c_refs_recruited_ = metrics_->GetCounter("node.refs_recruited");
  c_slow_calls_ = metrics_->GetCounter("node.slow_calls");
  c_meet_entries_shipped_ = metrics_->GetCounter("node.meet_entries_shipped");
  c_replica_syncs_skipped_ = metrics_->GetCounter("node.replica_syncs_skipped");
  h_route_attempts_ = metrics_->GetHistogram("node.route_attempts", obs::CountBounds());
  // An independent retry RNG stream: the node's protocol randomness (rng_) must
  // not shift when retries draw jitter.
  retry_ = std::make_unique<RetryPolicy>(config_.retry,
                                         seed ^ 0x9E3779B97F4A7C15ull, metrics_);
  if (config_.storage.enabled()) {
    storage::StorageConfig store = config_.storage;
    store.dir += "/" + StoreDirName(address_);
    persist_ = std::make_unique<storage::PersistenceManager>(std::move(store),
                                                             config_.maxl);
    c_storage_commits_ = metrics_->GetCounter("storage.commits");
    c_storage_commit_records_ = metrics_->GetCounter("storage.commit_records");
    c_storage_commit_bytes_ = metrics_->GetCounter("storage.commit_bytes");
    c_storage_compactions_ = metrics_->GetCounter("storage.compactions");
    h_storage_commit_us_ =
        metrics_->GetHistogram("storage.commit_us", obs::LatencyBoundsUs());
  }
}

void PGridNode::PersistState() {
  if (persist_ == nullptr) return;
  std::lock_guard<std::mutex> plock(persist_mu_);
  Result<storage::CommitBatch> batch = [this] {
    std::lock_guard<std::mutex> lock(mu_);
    Result<storage::CommitBatch> encoded = persist_->Encode(state_, delta_, book_.names());
    delta_.Clear();
    return encoded;
  }();
  Result<storage::CommitInfo> info =
      batch.ok() ? persist_->Write(std::move(*batch)) : batch.status();
  Status status = info.status();
  if (info.ok() && info->records > 0) {
    c_storage_commits_->Increment();
    c_storage_commit_records_->Increment(info->records);
    c_storage_commit_bytes_->Increment(info->bytes);
    h_storage_commit_us_->Record((info->write_ns + 500) / 1000);
  }
  if (info.ok() && info->compact_due) {
    // The only full copy of the state a commit makes: once per compaction.
    PeerState state(kSelf);
    std::vector<std::string> names;
    {
      std::lock_guard<std::mutex> lock(mu_);
      state = state_;
      names = book_.names();
    }
    status = persist_->Compact(state, names);
    if (status.ok()) c_storage_compactions_->Increment();
  }
  if (!status.ok()) {
    PGRID_LOG(Warning) << "durable commit failed for " << address_ << ": "
                       << status.ToString();
  }
}

Result<std::string> PGridNode::CallWithRetry(const std::string& to,
                                             const std::string& request,
                                             const obs::TraceContext& ctx) {
  // A valid context rides along as a kTraced envelope -- even when this node
  // does not record spans itself, so traces survive untraced intermediaries.
  std::string wrapped;
  const std::string* payload = &request;
  if (ctx.valid()) {
    wrapped = EncodeTraced(ctx, request);
    payload = &wrapped;
  }
  // With a probe timeout configured, a *slow* success feeds the failure
  // detector like a failure (gray-failure detection): a peer that chronically
  // answers slower than the budget is as useless as a dead one. Only measured
  // when configured, so the default path stays clock-free.
  bool slow = false;
  const auto start = config_.probe_timeout_ms > 0
                         ? std::chrono::steady_clock::now()
                         : std::chrono::steady_clock::time_point{};
  Result<std::string> result = retry_->Call(transport_, to, address_, *payload);
  if (config_.probe_timeout_ms > 0 && result.ok()) {
    const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - start);
    if (static_cast<uint64_t>(elapsed.count()) >= config_.probe_timeout_ms) {
      slow = true;
      c_slow_calls_->Increment();
    }
  }
  if (!result.ok() && result.status().code() == StatusCode::kDeadlineExceeded) {
    c_call_deadline_exceeded_->Increment();
  }
  NoteCallOutcome(to, result.ok() && !slow);
  return result;
}

void PGridNode::NoteCallOutcome(const std::string& to, bool ok) {
  if (config_.suspicion_threshold == 0 || to == address_) return;
  uint64_t removed = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (ok) {
      // With no failure counted there is nothing to clear; an address the
      // book never saw has no suspicion either.
      if (!suspicion_.has_failures()) return;
      const PeerId id = book_.Find(to);
      if (id != kInvalidPeer) suspicion_.NoteSuccess(id);
      return;
    }
    // The failure is only final after the retry policy gave up, so the table
    // counts consecutive *exhausted* calls, not individual packets. Crossing
    // the threshold resets the count; with a cooldown pending the crossing is
    // suppressed and the suspect stays referenced.
    const PeerId id = book_.Intern(to);
    if (!suspicion_.NoteFailure(id)) return;
    for (size_t level = 1; level <= state_.depth(); ++level) {
      const size_t gone = state_.RemoveRefAt(level, id);
      if (gone > 0) delta_.MarkRefs(level);
      removed += gone;
    }
    // Buddies go too: a confirmed-dead replica would otherwise be re-probed on
    // every maintenance round and fanned out to on every publish, forever.
    if (state_.RemoveBuddy(id)) {
      delta_.MarkBuddies();
      ++removed;
    }
    c_refs_evicted_->Increment(removed);
  }
  if (removed > 0) PersistState();
}

PGridNode::~PGridNode() { Stop(); }

Status PGridNode::Start() {
  recovered_ = false;
  if (persist_ != nullptr) {
    std::lock_guard<std::mutex> plock(persist_mu_);
    if (persist_->HasState(kSelf)) {
      // Recovery checks every stored id against the stored name table; the
      // book then checks that the table is this node's.
      std::vector<std::string> names;
      PGRID_ASSIGN_OR_RETURN(PeerState recovered, persist_->Recover(kSelf, &names));
      PGRID_ASSIGN_OR_RETURN(AddressBook book, AddressBook::FromNames(names, address_));
      // Re-baseline before installing: the WAL restarts empty against a fresh
      // snapshot.
      PGRID_RETURN_IF_ERROR(persist_->Attach(recovered, names));
      std::lock_guard<std::mutex> lock(mu_);
      state_ = std::move(recovered);
      book_ = std::move(book);
      delta_.Clear();
      index_terms_ = 0;
      state_.index().ForEach([this](const IndexEntry& e) {
        index_terms_ += sim::EntryTerm(HolderDigestLocked(e.holder), e);
      });
      // A restart is a state change: directives computed against the
      // pre-crash state (an exchange in flight when we died) must not apply.
      // The epoch is not stored: MeetWithDepth compares it only with the
      // epoch of its own request, so no comparison spans a restart.
      ++epoch_;
      // The failure detector restarts from a clean slate; its ids indexed the
      // book just replaced.
      suspicion_ = MakeSuspicionTable(config_);
      recovered_ = true;
    } else {
      PeerState state(kSelf);
      std::vector<std::string> names;
      {
        // The snapshot holds everything marked so far; later marks go to the
        // first commit.
        std::lock_guard<std::mutex> lock(mu_);
        state = state_;
        names = book_.names();
        delta_.Clear();
      }
      PGRID_RETURN_IF_ERROR(persist_->Attach(state, names));
    }
  }
  Status s = transport_->Serve(
      address_, [this](const std::string& from, const std::string& request) {
        return Handle(from, request);
      });
  if (s.ok()) serving_ = true;
  return s;
}

void PGridNode::Stop() {
  if (serving_) {
    transport_->StopServing(address_);
    serving_ = false;
  }
}

KeyPath PGridNode::path() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_.path();
}

std::vector<std::string> PGridNode::RefsAt(size_t level) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (level < 1 || level > state_.depth()) return {};
  return NamesLocked(state_.RefsAt(level));
}

std::vector<std::string> PGridNode::buddies() const {
  std::lock_guard<std::mutex> lock(mu_);
  return NamesLocked(state_.buddies());
}

std::vector<WireEntry> PGridNode::entries() const {
  std::vector<WireEntry> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    state_.index().ForEach([&](const IndexEntry& e) { out.push_back(ToWireLocked(e)); });
  }
  // Canonical order, so equal sets compare equal (e.g. across a restart).
  std::sort(out.begin(), out.end(), [](const WireEntry& a, const WireEntry& b) {
    return std::tie(a.holder, a.item_id) < std::tie(b.holder, b.item_id);
  });
  return out;
}

std::vector<WireEntry> PGridNode::foreign_entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<WireEntry> out;
  for (const IndexEntry& e : state_.foreign_entries()) out.push_back(ToWireLocked(e));
  return out;
}

std::vector<std::string> PGridNode::KnownPeers() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<PeerId> ids;
  const auto add = [&ids](PeerId id) {
    if (std::find(ids.begin(), ids.end(), id) == ids.end()) ids.push_back(id);
  };
  for (size_t level = 1; level <= state_.depth(); ++level) {
    for (PeerId id : state_.RefsAt(level)) add(id);
  }
  for (PeerId id : state_.buddies()) add(id);
  return NamesLocked(ids);
}

// ---- locked helpers ----

std::vector<std::string> PGridNode::NamesLocked(Span<PeerId> ids) const {
  std::vector<std::string> out;
  out.reserve(ids.size());
  for (PeerId id : ids) out.push_back(book_.Name(id));
  return out;
}

void PGridNode::SetRefsLocked(size_t level, Span<std::string_view> addresses) {
  auto kept = addresses |
              std::views::filter([this](std::string_view a) { return a != address_; }) |
              std::views::take(static_cast<std::ptrdiff_t>(config_.refmax));
  // Most exchanges re-sample a level to the list it already holds; only a
  // real change (order included) costs a record. An equal list names only
  // addresses the book holds, so interning it would change nothing either.
  const auto name = [this](PeerId id) -> const std::string& { return book_.Name(id); };
  if (std::ranges::equal(state_.RefsAt(level), kept, {}, name)) return;
  // Every address is looked up before a new one is interned, and only the
  // new ones are read again: a view of the book's own names would not
  // survive an Intern that grows it, and a new address is not one of those.
  std::vector<PeerId> ids;
  std::vector<std::string_view> added;
  ids.reserve(std::min(addresses.size(), config_.refmax));
  for (std::string_view a : kept) {
    ids.push_back(book_.Find(a));
    if (ids.back() == kInvalidPeer) added.push_back(a);
  }
  auto next = added.begin();
  for (PeerId& id : ids) {
    if (id == kInvalidPeer) id = book_.Intern(*next++);
  }
  state_.SetRefsAt(level, std::move(ids));
  delta_.MarkRefs(level);
}

WireEntry PGridNode::ToWireLocked(const IndexEntry& entry) const {
  return WireEntry{book_.Name(entry.holder), entry.item_id, entry.key, entry.version};
}

uint64_t PGridNode::IndexDigestLocked() const {
  return sim::SizeTerm(state_.index().size()) + index_terms_;
}

sim::Digest PGridNode::HolderDigestLocked(PeerId holder) const {
  sim::Digest d;
  d.Str(book_.Name(holder));
  return d;
}

void PGridNode::AdoptEntryLocked(const WireEntry& entry) {
  LeafIndex& index = state_.index();
  const size_t before = index.size();
  const IndexEntry adopted{book_.Intern(entry.holder), entry.item_id, entry.key,
                           entry.version};
  IndexEntry replaced;
  if (!index.InsertOrRefresh(adopted, &replaced)) return;
  delta_.MarkIndex(adopted.holder, adopted.item_id);
  const sim::Digest holder = HolderDigestLocked(adopted.holder);
  if (index.size() > before) {
    c_entries_adopted_->Increment();
  } else {
    index_terms_ -= sim::EntryTerm(holder, replaced);  // a refresh
  }
  index_terms_ += sim::EntryTerm(holder, adopted);
}

void PGridNode::AdoptOrParkLocked(const WireEntry& entry) {
  if (PathsOverlap(state_.path(), entry.key)) {
    AdoptEntryLocked(entry);
  } else {
    ParkLocked(IndexEntry{book_.Intern(entry.holder), entry.item_id, entry.key, entry.version});
  }
}

void PGridNode::ParkLocked(IndexEntry entry) {
  state_.foreign_entries().push_back(std::move(entry));
  delta_.MarkForeign();
}

std::vector<IndexEntry> PGridNode::DrainNonMatchingLocked() {
  TightVec<IndexEntry>& foreign = state_.foreign_entries();
  std::vector<IndexEntry> out(std::make_move_iterator(foreign.begin()),
                              std::make_move_iterator(foreign.end()));
  if (!foreign.empty()) delta_.MarkForeign();
  foreign.clear();
  for (IndexEntry& e : state_.index().ExtractNotMatching(state_.path())) {
    delta_.MarkIndex(e.holder, e.item_id);
    index_terms_ -= sim::EntryTerm(HolderDigestLocked(e.holder), e);
    out.push_back(std::move(e));
  }
  return out;
}

PGridNode::LocalMatch PGridNode::MatchLocked(const KeyPath& key, uint32_t consumed) {
  LocalMatch out;
  const KeyPath& path = state_.path();
  out.step = StepSearch(path, key, consumed);
  if (out.step.responsible) {
    state_.index().ForEachOverlapping(
        FullQuery(path, key, consumed),
        [&](const IndexEntry& e) { out.matching.push_back(ToWireLocked(e)); });
    return out;
  }
  // Not responsible: the path goes on past the divergence, so the level is in
  // range whatever consumed count the request carried.
  out.candidates = NamesLocked(state_.RefsAt(out.step.level()));
  return out;
}

// ---- handler side ----

namespace {

/// Server-side span name for a request type.
const char* ServeSpanName(MsgType type) {
  switch (type) {
    case MsgType::kPing:
      return "node.serve.ping";
    case MsgType::kQueryReq:
      return "node.serve.query";
    case MsgType::kPublishReq:
      return "node.serve.publish";
    case MsgType::kExchangeReq:
      return "node.serve.exchange";
    case MsgType::kCommitReq:
      return "node.serve.commit";
    case MsgType::kEntryPushReq:
      return "node.serve.entry_push";
    case MsgType::kStatsReq:
      return "node.serve.stats";
    case MsgType::kProbeReq:
      return "node.serve.probe";
    default:
      return "node.serve.other";
  }
}

}  // namespace

std::string PGridNode::Handle(const std::string& from, const std::string& request) {
  Result<MsgType> type = PeekType(request);
  if (!type.ok()) return EncodeError(type.status().ToString());
  if (*type != MsgType::kTraced) {
    return Dispatch(from, request, *type, obs::TraceContext{});
  }
  // Traced envelope: unwrap, stitch a server-side child span under the caller's
  // span (if this node records), and serve the inner request as if it had
  // arrived bare. The response is the ordinary unwrapped response.
  Result<TracedEnvelope> env = DecodeTraced(request);
  if (!env.ok()) return EncodeError(env.status().ToString());
  Result<MsgType> inner_type = PeekType(env->inner);
  if (!inner_type.ok()) return EncodeError(inner_type.status().ToString());
  if (trace_ == nullptr) {
    // Not recording here: pass the caller's context through so downstream hops
    // still stitch under the original span.
    return Dispatch(from, env->inner, *inner_type, env->ctx);
  }
  obs::TraceSpan serve(trace_, ServeSpanName(*inner_type), env->ctx,
                       "node=" + address_ + " from=" + from);
  return Dispatch(from, env->inner, *inner_type, serve.context());
}

std::string PGridNode::Dispatch(const std::string& from, const std::string& request,
                                MsgType type, const obs::TraceContext& ctx) {
  // State-changing requests commit to durable storage before they answer.
  const auto persisted = [this](std::string response) {
    PersistState();
    return response;
  };
  switch (type) {
    case MsgType::kPing:
      return EncodePong();
    case MsgType::kQueryReq:
      return HandleQuery(request);
    case MsgType::kPublishReq:
      return persisted(HandlePublish(request, ctx));
    case MsgType::kExchangeReq:
      return persisted(HandleExchange(from, request, ctx));
    case MsgType::kCommitReq:
      return persisted(HandleCommit(from, request));
    case MsgType::kEntryPushReq:
      return persisted(HandleEntryPush(request));
    case MsgType::kStatsReq:
      return HandleStats();
    case MsgType::kProbeReq:
      return HandleProbe();
    default:
      return EncodeError("unexpected request type");
  }
}

std::string PGridNode::HandleStats() {
  StatsResponse resp;
  resp.json = obs::ToJson(metrics_->Snapshot());
  return EncodeStatsResponse(resp);
}

std::string PGridNode::HandleProbe() {
  ProbeResponse resp;
  std::lock_guard<std::mutex> lock(mu_);
  resp.path = state_.path();
  resp.entry_count = static_cast<uint32_t>(state_.index().size());
  resp.index_digest = IndexDigestLocked();
  return EncodeProbeResponse(resp);
}

std::string PGridNode::HandleQuery(const std::string& request) {
  Result<QueryRequest> req = DecodeQueryRequest(request);
  if (!req.ok()) return EncodeError(req.status().ToString());
  c_queries_served_->Increment();
  std::lock_guard<std::mutex> lock(mu_);
  LocalMatch m = MatchLocked(req->key, req->consumed);
  if (m.step.responsible) {
    QueryResponseFound resp;
    resp.responder = address_;
    resp.entries = std::move(m.matching);
    return EncodeQueryResponseFound(resp);
  }
  if (m.candidates.empty()) return EncodeQueryResponseMiss();
  QueryResponseForward resp;
  resp.consumed = static_cast<uint32_t>(m.step.consumed);
  resp.remaining = std::move(m.step.remaining);
  resp.candidates = std::move(m.candidates);
  return EncodeQueryResponseForward(resp);
}

std::string PGridNode::HandlePublish(const std::string& request,
                                     const obs::TraceContext& ctx) {
  Result<PublishRequest> req = DecodePublishRequest(request);
  if (!req.ok()) return EncodeError(req.status().ToString());
  PublishAck ack;
  std::vector<std::string> buddies_to_notify;
  c_publishes_served_->Increment();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (PathsOverlap(state_.path(), req->entry.key)) {
      AdoptEntryLocked(req->entry);
      ack.installed = 1;
      if (req->forward_to_buddies != 0) buddies_to_notify = NamesLocked(state_.buddies());
    }
  }
  // Fan out to buddies without holding the lock; the forwarded request must not
  // fan out again (the buddy lists of replicas largely coincide).
  if (!buddies_to_notify.empty()) {
    const std::string bytes = EncodePublishRequest({req->entry, /*forward_to_buddies=*/0});
    for (const std::string& buddy : buddies_to_notify) {
      if (CallWithRetry(buddy, bytes, ctx).ok()) ++ack.buddies_notified;
    }
  }
  return EncodePublishAck(ack);
}

std::string PGridNode::HandleCommit(const std::string& from,
                                    const std::string& request) {
  Result<CommitRequest> req = DecodeCommitRequest(request);
  if (!req.ok()) return EncodeError(req.status().ToString());
  std::lock_guard<std::mutex> lock(mu_);
  const size_t level = req->level;
  if (level < 1 || level > state_.depth()) {
    return EncodeError("commit level out of range");
  }
  // Only accept references that satisfy the Sec. 2 property: the committer's bit
  // at `level` must be the complement of ours. (Our own bits never change once
  // set, so this check cannot race.)
  if (req->bit != static_cast<uint8_t>(ComplementBit(state_.PathBit(level)))) {
    return EncodeError("commit bit does not complement ours");
  }
  const PeerId committer = book_.Intern(from);
  std::vector<PeerId> refs = state_.RefsAt(level).ToVector();
  if (std::find(refs.begin(), refs.end(), committer) == refs.end()) {
    if (refs.size() < config_.refmax) {
      refs.push_back(committer);
    } else {
      // Full: replace a random entry, keeping the reference set fresh.
      refs[rng_.UniformIndex(refs.size())] = committer;
    }
    state_.SetRefsAt(level, std::move(refs));
    delta_.MarkRefs(level);
  }
  return EncodeCommitAck();
}

std::string PGridNode::HandleEntryPush(const std::string& request) {
  Result<EntryPushRequest> req = DecodeEntryPushRequest(request);
  if (!req.ok()) return EncodeError(req.status().ToString());
  EntryPushResponse resp;
  std::lock_guard<std::mutex> lock(mu_);
  for (const WireEntry& e : req->entries) {
    if (PathsOverlap(state_.path(), e.key)) {
      AdoptEntryLocked(e);
    } else {
      resp.rejected.push_back(e);
    }
  }
  return EncodeEntryPushResponse(resp);
}

std::string PGridNode::HandleExchange(const std::string& from,
                                      const std::string& request,
                                      const obs::TraceContext& ctx) {
  (void)from;
  // The request's address lists are views into `request`, which outlives
  // every use of them here, the recursion included.
  Result<ExchangeRequest> reqr = DecodeExchangeRequest(request);
  if (!reqr.ok()) return EncodeError(reqr.status().ToString());
  const ExchangeRequest& req = *reqr;
  if (req.initiator == address_) return EncodeError("self exchange");

  const std::string_view self = address_;
  const std::string_view initiator = req.initiator;
  const size_t fanout = config_.recursion_fanout > 0 ? config_.recursion_fanout
                                                     : config_.refmax;
  ExchangeResponse resp;
  resp.epoch = req.epoch;
  std::string encoded;
  std::vector<std::string_view> my_recursion_targets;
  const uint32_t depth = req.depth;

  c_exchanges_served_->Increment();
  {
    std::lock_guard<std::mutex> lock(mu_);
    const size_t lc = req.path.CommonPrefixLength(state_.path());
    const size_t l1 = req.path.length() - lc;
    const size_t l2 = state_.depth() - lc;

    // Reference lists are unioned, sampled and compared as views, of our
    // book's names and of the request, and the response is encoded from them.
    // Only then is anything interned (the end of this block): an Intern that
    // grows the book moves the names those views point into.
    std::vector<std::string_view> kept_lc;  // our new level-lc references
    bool refer_to_initiator = false;        // case 3: it becomes our lc + 1 reference
    bool buddy_initiator = false;           // the replica case
    const auto name = [this](PeerId id) { return std::string_view(book_.Name(id)); };
    if (lc > 0) {
      // Cross-pollinate level-lc references (both sides have them): their
      // union, ours first.
      std::vector<std::string_view> common =
          Union(state_.RefsAt(lc) | std::views::transform(name), req.refs.Find(lc));
      kept_lc = rng_.SampleWithoutReplacement(Without(common, self), config_.refmax);
      std::erase(common, initiator);
      resp.ref_updates.AddLevel(
          static_cast<uint32_t>(lc),
          rng_.SampleWithoutReplacement(std::move(common), config_.refmax));
    }

    if (l1 == 0 && l2 == 0 && lc < config_.maxl) {
      // Case 1: identical paths below maxl. Randomize who takes which bit so the
      // initiator role carries no systematic bias. Our reference to the initiator
      // is NOT installed yet: the initiator may discard the directive (epoch
      // race); it confirms its new bit with a commit message (HandleCommit).
      const int my_bit = rng_.Bit();
      state_.AppendPathBit(my_bit);
      delta_.MarkPath();
      ++epoch_;
      resp.append_bits.PushBack(ComplementBit(my_bit));
      resp.ref_updates.AddLevel(static_cast<uint32_t>(lc + 1), {&self, 1});
    } else if (l1 == 0 && l2 > 0 && lc < config_.maxl) {
      // Case 2: initiator's path is a prefix of ours -- it specializes opposite to
      // our next bit. As in case 1, we only learn about it as a reference once it
      // commits.
      resp.append_bits.PushBack(ComplementBit(state_.PathBit(lc + 1)));
      resp.ref_updates.AddLevel(static_cast<uint32_t>(lc + 1), {&self, 1});
    } else if (l1 > 0 && l2 == 0 && lc < config_.maxl) {
      // Case 3: we specialize opposite to the initiator's next bit.
      state_.AppendPathBit(ComplementBit(req.path.bit(lc)));
      delta_.MarkPath();
      refer_to_initiator = true;
      ++epoch_;
      resp.ref_updates.AddLevel(
          static_cast<uint32_t>(lc + 1),
          rng_.SampleWithoutReplacement(
              Without(Union(Span<std::string_view>(&self, 1), req.refs.Find(lc + 1)),
                      initiator),
              config_.refmax));
    } else if (l1 > 0 && l2 > 0 && depth < config_.recmax) {
      // Case 4: diverging paths -- refer the initiator to our references on its
      // side, and (after releasing the lock) exchange with its references on ours.
      resp.referrals = rng_.SampleWithoutReplacement(
          Without(state_.RefsAt(lc + 1) | std::views::transform(name), initiator),
          fanout);
      my_recursion_targets =
          rng_.SampleWithoutReplacement(Without(req.refs.Find(lc + 1), self), fanout);
    } else if (l1 == 0 && l2 == 0) {
      // Replica case: identical complete paths at maxl -- become buddies and give
      // the initiator everything we index (its push completes the sync). Equal
      // digests mean equal entry sets, so then there is nothing to give.
      buddy_initiator = true;
      resp.buddy = 1;
      if (req.index_digest == IndexDigestLocked()) {
        resp.in_sync = 1;
        c_replica_syncs_skipped_->Increment();
      } else {
        state_.index().ForEach(
            [&](const IndexEntry& e) { resp.entries.push_back(ToWireLocked(e)); });
      }
    }

    // Data reconciliation: hand the initiator whatever we hold that belongs on its
    // side now (it applies the same logic after applying the directives).
    if (resp.buddy == 0) {
      const KeyPath initiator_path = req.path.Concat(resp.append_bits);
      for (IndexEntry& e : DrainNonMatchingLocked()) {
        if (PathsOverlap(initiator_path, e.key)) {
          resp.entries.push_back(ToWireLocked(e));
        } else {
          ParkLocked(std::move(e));
        }
      }
    }

    encoded = EncodeExchangeResponse(resp);
    if (lc > 0) SetRefsLocked(lc, kept_lc);
    if (refer_to_initiator) SetRefsLocked(lc + 1, {&initiator, 1});
    if (buddy_initiator && state_.AddBuddy(book_.Intern(initiator))) delta_.MarkBuddies();
  }

  c_meet_entries_shipped_->Increment(resp.entries.size());
  // Responder-side case-4 recursion, outside the lock.
  for (std::string_view target : my_recursion_targets) {
    (void)MeetWithDepth(std::string(target), depth + 1, ctx);
  }
  return encoded;
}

// ---- client side ----

Status PGridNode::MeetWith(const std::string& peer) { return MeetWithDepth(peer, 0); }

Status PGridNode::MeetWithDepth(const std::string& peer, uint32_t depth,
                                const obs::TraceContext& parent) {
  if (peer == address_) return Status::OK();
  obs::TraceSpan span(trace_, "node.meet", parent, SpanDetail(trace_, "peer=", peer));
  // Downstream context: our meet span if we record, else the inherited one so a
  // remote trace keeps flowing through recursion on an untraced node.
  const obs::TraceContext ctx = trace_ != nullptr ? span.context() : parent;
  c_exchanges_initiated_->Increment();
  std::string request;
  {
    // The request's table views the book's names, so the request is built
    // and encoded under the lock and goes out of scope with it.
    std::lock_guard<std::mutex> lock(mu_);
    ExchangeRequest req;
    req.initiator = address_;
    req.depth = depth;
    req.epoch = epoch_;
    req.path = state_.path();
    size_t refs = 0;
    for (size_t level = 1; level <= state_.depth(); ++level) {
      refs += state_.RefsAt(level).size();
    }
    req.refs.Reserve(state_.depth(), refs);
    for (size_t level = 1; level <= state_.depth(); ++level) {
      for (PeerId id : state_.RefsAt(level)) req.refs.Append(book_.Name(id));
      req.refs.CloseLevel(static_cast<uint32_t>(level));
    }
    req.index_digest = IndexDigestLocked();
    request = EncodeExchangeRequest(req);
  }

  Result<std::string> raw = CallWithRetry(peer, request, ctx);
  if (!raw.ok()) return raw.status();
  Result<MsgType> type = PeekType(*raw);
  if (!type.ok() || *type != MsgType::kExchangeResp) {
    return Status::Internal("bad exchange response from " + peer);
  }
  // The response's address lists are views into *raw.
  Result<ExchangeResponse> respr = DecodeExchangeResponse(*raw);
  if (!respr.ok()) return respr.status();
  const ExchangeResponse& resp = *respr;

  std::vector<WireEntry> push;
  std::vector<CommitRequest> commits;
  bool discarded = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // The directives are discarded if our state changed while the exchange was
    // in flight (another meeting ran concurrently), so they are stale, or if
    // they would take the path past maxl (stale or malicious). Dropping a
    // randomized meeting is harmless -- and because we never commit, the
    // responder installs no reference to us either. The entries are not
    // directives: the responder may have drained them from its own index, so
    // we take custody of them either way.
    discarded = resp.epoch != epoch_ ||
                (!resp.append_bits.empty() &&
                 state_.depth() + resp.append_bits.length() > config_.maxl);
    if (discarded) {
      for (const WireEntry& e : resp.entries) AdoptOrParkLocked(e);
    } else {
      for (size_t i = 0; i < resp.append_bits.length(); ++i) {
        state_.AppendPathBit(resp.append_bits.bit(i));
        commits.push_back({static_cast<uint32_t>(state_.depth()),
                           static_cast<uint8_t>(resp.append_bits.bit(i))});
      }
      if (!resp.append_bits.empty()) {
        delta_.MarkPath();
        ++epoch_;
      }
      for (size_t i = 0; i < resp.ref_updates.size(); ++i) {
        const uint32_t level = resp.ref_updates.level(i);
        if (level >= 1 && level <= state_.depth()) {
          SetRefsLocked(level, resp.ref_updates.addresses(i));
        }
      }
      const bool became_buddy = resp.buddy != 0 && state_.AddBuddy(book_.Intern(peer));
      if (became_buddy) delta_.MarkBuddies();
      for (const WireEntry& e : resp.entries) AdoptOrParkLocked(e);
      for (const IndexEntry& e : DrainNonMatchingLocked()) push.push_back(ToWireLocked(e));
      if (became_buddy && resp.in_sync == 0) {
        // Complete the bidirectional sync: give the new buddy our index, unless
        // the responder found that it holds the same entries already.
        state_.index().ForEach(
            [&](const IndexEntry& e) { push.push_back(ToWireLocked(e)); });
      }
    }
  }
  if (discarded) {
    PersistState();
    return Status::OK();
  }

  // Confirm the applied append directives so the responder may now reference us
  // (see HandleCommit).
  for (const CommitRequest& commit : commits) {
    (void)CallWithRetry(peer, EncodeCommitRequest(commit), ctx);
  }
  if (!push.empty()) PushEntries(peer, std::move(push), ctx);
  PersistState();
  for (std::string_view referral : resp.referrals) {
    (void)MeetWithDepth(std::string(referral), depth + 1, ctx);
  }
  return Status::OK();
}

void PGridNode::PushEntries(const std::string& peer, std::vector<WireEntry> entries,
                            const obs::TraceContext& ctx) {
  EntryPushRequest req;
  req.entries = std::move(entries);
  c_meet_entries_shipped_->Increment(req.entries.size());
  Result<std::string> raw = CallWithRetry(peer, EncodeEntryPushRequest(req), ctx);
  std::vector<WireEntry> rejected;
  if (raw.ok()) {
    Result<EntryPushResponse> resp = DecodeEntryPushResponse(*raw);
    if (resp.ok()) {
      rejected = std::move(resp->rejected);
    } else {
      rejected = std::move(req.entries);
    }
  } else {
    rejected = std::move(req.entries);
  }
  if (rejected.empty()) return;
  std::lock_guard<std::mutex> lock(mu_);
  for (const WireEntry& e : rejected) AdoptOrParkLocked(e);
}

Status PGridNode::Publish(const DataItem& item) {
  obs::TraceSpan span(trace_, "node.publish");
  const obs::TraceContext ctx = trace_ != nullptr ? span.context() : obs::TraceContext{};
  {
    std::lock_guard<std::mutex> lock(mu_);
    state_.store().Upsert(item);
    delta_.MarkItem(item.id);
  }
  PersistState();
  const WireEntry entry{address_, item.id, item.key, item.version};

  Result<RouteResult> routed = Route(item.key, ctx);
  if (!routed.ok()) return routed.status();
  const std::string responder = routed->responder;
  if (responder == address_) {
    std::vector<std::string> buddies_copy;
    {
      std::lock_guard<std::mutex> lock(mu_);
      AdoptOrParkLocked(entry);  // the path may have grown since the route
      buddies_copy = NamesLocked(state_.buddies());
    }
    const std::string bytes = EncodePublishRequest({entry, /*forward_to_buddies=*/0});
    for (const std::string& buddy : buddies_copy) {
      (void)CallWithRetry(buddy, bytes, ctx);
    }
    PersistState();
    return Status::OK();
  }
  Result<std::string> raw =
      CallWithRetry(responder, EncodePublishRequest({entry, /*forward_to_buddies=*/1}), ctx);
  if (!raw.ok()) return raw.status();
  Result<PublishAck> ack = DecodePublishAck(*raw);
  if (!ack.ok()) return ack.status();
  if (ack->installed == 0) {
    return Status::Internal("responsible peer refused the entry");
  }
  return Status::OK();
}

Result<PGridNode::RouteResult> PGridNode::Route(const KeyPath& key,
                                                const obs::TraceContext& parent) {
  obs::TraceSpan span(trace_, "node.route", parent,
                      SpanDetail(trace_, "node=", address_));
  if (trace_ != nullptr) span.Event("node.route.key", key.ToString());
  // Depth-first iterative routing: each frame is a candidate address plus the
  // query suffix/consumed level to present to it.
  struct Frame {
    std::string address;
    KeyPath remaining;
    uint32_t consumed;
  };
  std::vector<Frame> stack;

  {
    std::lock_guard<std::mutex> lock(mu_);
    LocalMatch m = MatchLocked(key, 0);
    if (m.step.responsible) {
      h_route_attempts_->Record(0);
      return RouteResult{address_, std::move(m.matching)};
    }
    std::vector<std::string> candidates = std::move(m.candidates);
    rng_.Shuffle(&candidates);
    for (const std::string& c : candidates) {
      stack.push_back(Frame{c, m.step.remaining, static_cast<uint32_t>(m.step.consumed)});
    }
  }

  size_t attempts = 0;
  while (!stack.empty() && attempts < kMaxRouteAttempts) {
    Frame frame = std::move(stack.back());
    stack.pop_back();
    ++attempts;
    QueryRequest qreq;
    qreq.key = frame.remaining;
    qreq.consumed = frame.consumed;
    // Per-hop client span: the receiving node's node.serve.query span stitches
    // underneath this one, so the reconstructed tree shows each hop's server
    // time inside the client's RPC time.
    Result<std::string> raw = [&]() -> Result<std::string> {
      obs::TraceSpan hop(trace_, "node.rpc.query", span.context(),
                         SpanDetail(trace_, "to=", frame.address));
      return CallWithRetry(frame.address, EncodeQueryRequest(qreq), hop.context());
    }();
    if (!raw.ok()) {  // offline candidate: backtrack
      c_route_offline_skips_->Increment();
      span.Event("node.route.offline_skip", frame.address);
      continue;
    }
    Result<MsgType> type = PeekType(*raw);
    if (!type.ok()) continue;
    if (*type == MsgType::kQueryRespFound) {
      Result<QueryResponseFound> resp = DecodeQueryResponseFound(*raw);
      if (!resp.ok()) continue;
      h_route_attempts_->Record(attempts);
      return RouteResult{std::move(resp->responder), std::move(resp->entries)};
    }
    if (*type == MsgType::kQueryRespForward) {
      Result<QueryResponseForward> resp = DecodeQueryResponseForward(*raw);
      if (!resp.ok()) continue;
      std::vector<std::string> candidates = std::move(resp->candidates);
      {
        std::lock_guard<std::mutex> lock(mu_);
        rng_.Shuffle(&candidates);
      }
      for (const std::string& c : candidates) {
        stack.push_back(Frame{c, resp->remaining, resp->consumed});
      }
      continue;
    }
    // Miss or error: backtrack to the next candidate.
    c_route_backtracks_->Increment();
    span.Event("node.route.backtrack", frame.address);
  }
  h_route_attempts_->Record(attempts);
  return Status::NotFound("no responsible peer reachable for key " + key.ToString());
}

Result<std::string> PGridNode::FetchPeerStats(const std::string& peer) {
  PGRID_ASSIGN_OR_RETURN(std::string raw, CallWithRetry(peer, EncodeStatsRequest()));
  Result<MsgType> type = PeekType(raw);
  if (!type.ok() || *type != MsgType::kStatsResp) {
    return Status::Internal("bad stats response from " + peer);
  }
  PGRID_ASSIGN_OR_RETURN(StatsResponse resp, DecodeStatsResponse(raw));
  return std::move(resp.json);
}

Result<std::vector<WireEntry>> PGridNode::Search(const KeyPath& key) {
  PGRID_ASSIGN_OR_RETURN(RouteResult route, Route(key));
  return std::move(route.entries);
}

Result<std::string> PGridNode::RouteToResponsible(const KeyPath& key) {
  PGRID_ASSIGN_OR_RETURN(RouteResult route, Route(key));
  return std::move(route.responder);
}

Result<ProbeResponse> PGridNode::Probe(const std::string& peer,
                                       const obs::TraceContext& ctx) {
  c_probes_sent_->Increment();
  obs::TraceSpan span(trace_, "node.probe", ctx, SpanDetail(trace_, "peer=", peer));
  PGRID_ASSIGN_OR_RETURN(
      std::string raw, CallWithRetry(peer, EncodeProbeRequest(), span.context()));
  Result<MsgType> type = PeekType(raw);
  if (!type.ok() || *type != MsgType::kProbeResp) {
    return Status::Internal("bad probe response from " + peer);
  }
  return DecodeProbeResponse(raw);
}

size_t PGridNode::MaintainReferences() {
  obs::TraceSpan span(trace_, "node.maintain", obs::TraceContext{},
                      SpanDetail(trace_, "node=", address_));
  const obs::TraceContext ctx = span.context();
  // Probe everyone we know. Delivered probes clear suspicion; failures count
  // toward it, and the threshold eviction happens inside the call funnel
  // (NoteCallOutcome), so crashed peers drain out of the reference levels.
  for (const std::string& peer : KnownPeers()) (void)Probe(peer, ctx);

  // Refill: snapshot which levels sit below refmax, then recruit per level by
  // routing a lookup into the complementary subtree.
  KeyPath my_path;
  std::vector<size_t> underfull;
  {
    std::lock_guard<std::mutex> lock(mu_);
    my_path = state_.path();
    for (size_t level = 1; level <= state_.depth(); ++level) {
      if (state_.RefsAt(level).size() < config_.refmax) underfull.push_back(level);
    }
  }
  size_t recruited = 0;
  for (size_t level : underfull) {
    KeyPath key;
    {
      std::lock_guard<std::mutex> lock(mu_);
      key = ComplementaryKey(my_path, level, config_.maxl, &rng_);
    }
    Result<RouteResult> routed = Route(key, ctx);
    if (!routed.ok() || routed->responder == address_) continue;
    const std::string responder = routed->responder;
    // Verify the reference property against the responder's *probed* path
    // before adopting: routing found it responsible for a complementary key,
    // but only its own path statement proves the level bit.
    Result<ProbeResponse> info = Probe(responder, ctx);
    if (!info.ok()) continue;
    std::lock_guard<std::mutex> lock(mu_);
    if (!CanReference(state_.path(), level, info->path)) continue;
    if (state_.RefsAt(level).size() < config_.refmax &&
        state_.AddRefAt(level, book_.Intern(responder))) {
      delta_.MarkRefs(level);
      c_refs_recruited_->Increment();
      ++recruited;
    }
  }
  if (recruited > 0) PersistState();
  return recruited;
}

}  // namespace net
}  // namespace pgrid
