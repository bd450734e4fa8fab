#ifndef CRACKDB_STORAGE_DICTIONARY_H_
#define CRACKDB_STORAGE_DICTIONARY_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.h"

namespace crackdb {

/// String dictionary: maps strings to dense integer codes so string
/// attributes live in ordinary Value columns.
///
/// TPC-H's string predicates in the evaluated queries are equalities and IN
/// lists (ship modes, market segments, container types, ...), which only
/// need stable codes. When a domain is registered up front via
/// RegisterSorted, codes additionally respect lexicographic order so range
/// predicates on that attribute are meaningful.
class Dictionary {
 public:
  /// Registers the full, final domain in lexicographic order; codes are
  /// 0..n-1 in that order. Dies if any string was encoded before.
  void RegisterSorted(std::vector<std::string> domain);

  /// Returns the code for `s`, inserting it (next free code) if new.
  Value Encode(const std::string& s);

  /// Returns the code for `s`; dies if absent.
  Value CodeOf(const std::string& s) const;

  const std::string& Decode(Value code) const { return strings_[code]; }

  size_t size() const { return strings_.size(); }

 private:
  std::unordered_map<std::string, Value> codes_;
  std::vector<std::string> strings_;
};

}  // namespace crackdb

#endif  // CRACKDB_STORAGE_DICTIONARY_H_
