// Dense peer ids for transport addresses.
//
// A PGridNode keeps its protocol state in a PeerState (core/peer_state.h),
// which names peers by dense PeerId, the way the simulator does. The address
// book is the table between those ids and transport addresses. The node
// itself is id 0; every other address gets the next id the first time the
// node keeps it. The book is append-only -- a name is never removed -- so an
// id stays valid for the life of the node, and of the durable store that
// holds a copy of the table (storage/persist.h). Ids turn back into addresses
// only at the wire and in the node's public accessors.
//
// Find and Intern take views, so a caller may look up an address where it
// lies, say in a received payload. A view into the book itself (of a Name)
// is another matter: an Intern that adds a name may move every name, so no
// such view may be used after one.

#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "sim/types.h"
#include "util/macros.h"
#include "util/result.h"

namespace pgrid {
namespace net {

class AddressBook {
 public:
  /// A book holding only `self`, at id 0.
  explicit AddressBook(const std::string& self) { Intern(self); }

  /// Rebuilds a book from a persisted name table. Fails unless the table names
  /// `self` at id 0 and no address twice.
  static Result<AddressBook> FromNames(const std::vector<std::string>& names,
                                       const std::string& self) {
    if (names.empty() || names[0] != self) {
      return Status::InvalidArgument("name table does not belong to " + self);
    }
    AddressBook book(self);
    for (size_t id = 1; id < names.size(); ++id) {
      if (book.Intern(names[id]) != id) {
        return Status::InvalidArgument("name table holds " + names[id] + " twice");
      }
    }
    return book;
  }

  /// The id of `address`, assigning the next dense id if it is new.
  PeerId Intern(std::string_view address) {
    if (auto it = ids_.find(address); it != ids_.end()) return it->second;
    const PeerId id = static_cast<PeerId>(names_.size());
    ids_.emplace(std::string(address), id);
    names_.emplace_back(address);
    return id;
  }

  /// The id of `address`, or kInvalidPeer if it was never interned.
  PeerId Find(std::string_view address) const {
    auto it = ids_.find(address);
    return it == ids_.end() ? kInvalidPeer : it->second;
  }

  /// The address of `id`. Requires id < size().
  const std::string& Name(PeerId id) const {
    PGRID_CHECK_LT(id, names_.size());
    return names_[id];
  }

  size_t size() const { return names_.size(); }

  /// The whole table: entry i is the address of id i.
  const std::vector<std::string>& names() const { return names_; }

 private:
  /// Hashes strings and views alike, so a view is looked up without a copy.
  struct NameHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  std::vector<std::string> names_;
  std::unordered_map<std::string, PeerId, NameHash, std::equal_to<>> ids_;
};

}  // namespace net
}  // namespace pgrid
