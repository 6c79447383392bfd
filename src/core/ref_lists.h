// Order-keeping set algebra over reference lists: the simulator's exchange
// applies it to PeerIds, the node's to views of address strings. Both sample
// the results with random draws, so the element order is part of the
// contract.

#pragma once

#include <algorithm>
#include <ranges>
#include <vector>

namespace pgrid {

/// A copy of `list` without the elements equal to `exclude`.
template <std::ranges::range List>
std::vector<std::ranges::range_value_t<List>> Without(
    const List& list, const std::ranges::range_value_t<List>& exclude) {
  std::vector<std::ranges::range_value_t<List>> out;
  out.reserve(std::ranges::size(list));
  for (const auto& x : list) {
    if (x != exclude) out.push_back(x);
  }
  return out;
}

/// Appends to `*a`, in order, the elements of `b` it does not hold yet.
template <typename T, std::ranges::range B>
void AppendMissing(std::vector<T>* a, const B& b) {
  for (const auto& x : b) {
    if (std::find(a->begin(), a->end(), x) == a->end()) a->push_back(x);
  }
}

/// `a` followed by the elements of `b` it does not hold yet.
template <std::ranges::sized_range A, std::ranges::sized_range B>
std::vector<std::ranges::range_value_t<A>> Union(const A& a, const B& b) {
  std::vector<std::ranges::range_value_t<A>> out;
  out.reserve(std::ranges::size(a) + std::ranges::size(b));
  for (const auto& x : a) out.push_back(x);
  AppendMissing(&out, b);
  return out;
}

}  // namespace pgrid
