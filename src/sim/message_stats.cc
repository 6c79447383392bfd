#include "sim/message_stats.h"

namespace pgrid {

namespace {

/// Which registry counter counts which simulated message. Every counter here is
/// incremented at the one call site that sends the messages it names.
struct MessageCounter {
  const char* name;
  MessageType type;
};

constexpr MessageCounter kMessageCounters[] = {
    {"exchange.count", MessageType::kExchange},
    {"search.messages", MessageType::kQuery},
    {"update.messages", MessageType::kUpdate},
    {"exchange.entries_moved", MessageType::kDataTransfer},
    {"insert.entries_installed", MessageType::kDataTransfer},
    {"churn.entries_handed_over", MessageType::kDataTransfer},
    {"repair.entries_reconciled", MessageType::kDataTransfer},
    {"churn.handovers", MessageType::kControl},
    {"repair.probes", MessageType::kControl},
    {"repair.sync_sessions", MessageType::kControl},
    {"repair.read_repairs", MessageType::kControl},
};

}  // namespace

MessageStats::MessageStats(const obs::MetricsRegistry& metrics) {
  for (const MessageCounter& m : kMessageCounters) {
    if (const obs::Counter* c = metrics.FindCounter(m.name)) {
      counts_[static_cast<int>(m.type)] += c->value();
    }
  }
}

std::string_view MessageTypeName(MessageType t) {
  switch (t) {
    case MessageType::kExchange:
      return "exchange";
    case MessageType::kQuery:
      return "query";
    case MessageType::kUpdate:
      return "update";
    case MessageType::kDataTransfer:
      return "data_transfer";
    case MessageType::kControl:
      return "control";
  }
  return "unknown";
}

}  // namespace pgrid
