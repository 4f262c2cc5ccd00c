#ifndef SEQDET_STORAGE_BLOOM_FILTER_H_
#define SEQDET_STORAGE_BLOOM_FILTER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace seqdet::storage {

/// Blocked Bloom filter over segment keys.
///
/// Point reads walk segments newest-to-oldest; most segments do not contain
/// the probed key, so a cheap negative test in front of each binary search
/// pays for itself as soon as a table has more than a couple of segments
/// (the classic LSM read-path optimization). Segments persist it in the
/// footer via Serialize/Deserialize so open cost stays O(footer).
class BloomFilter {
 public:
  /// Creates a filter sized for `expected_keys` at ~bits_per_key bits each
  /// (10 bits/key ≈ 1% false-positive rate).
  explicit BloomFilter(size_t expected_keys, size_t bits_per_key = 10);

  void Add(std::string_view key);

  /// False means "definitely absent"; true means "probably present".
  bool MayContain(std::string_view key) const;

  size_t SizeBytes() const { return bits_.size() * sizeof(uint64_t); }

  /// Appends the filter bits + probe count: varint num_probes, varint word
  /// count, then the words as fixed64. Stable across platforms.
  void Serialize(std::string* dst) const;

  /// Parses a serialized filter, advancing `input` past it. False on
  /// truncation or an implausible probe count (treat as corruption).
  bool Deserialize(std::string_view* input);

 private:
  static uint64_t Hash(std::string_view key, uint64_t seed);

  std::vector<uint64_t> bits_;
  size_t num_probes_;
};

}  // namespace seqdet::storage

#endif  // SEQDET_STORAGE_BLOOM_FILTER_H_
