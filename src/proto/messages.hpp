// Wire messages of the event-driven protocol stack. Two sub-protocols
// share the transport, exactly as deployed:
//  * the aggregation push–pull pair (fig. 1), tagged with the sender's
//    epoch id (§4.1) and a request id for timeout matching;
//  * the NEWSCAST cache exchange pair (§4.4).
#pragma once

#include <cstdint>
#include <variant>
#include <vector>

#include "membership/newscast_cache.hpp"

namespace gossip::proto {

struct AggPush {
  std::uint64_t epoch = 0;
  std::uint64_t request_id = 0;
  double value = 0.0;
};

struct AggReply {
  std::uint64_t epoch = 0;
  std::uint64_t request_id = 0;
  double value = 0.0;
  /// Set when the passive side refused the push (busy, gated, or a stale
  /// epoch); the value is then meaningless and `epoch` carries its epoch.
  bool refused = false;
};

struct NewsPush {
  std::vector<membership::CacheEntry> entries;
  membership::CacheEntry fresh;  ///< sender's own descriptor
};

struct NewsReply {
  std::vector<membership::CacheEntry> entries;
  membership::CacheEntry fresh;
};

using Message = std::variant<AggPush, AggReply, NewsPush, NewsReply>;

}  // namespace gossip::proto
