#pragma once
// Shared affine min-hash sketch kernel — the permutation family both sides
// of the pipeline sketch with. Slot j of a sketch holds
// min over a sequence's distinct k-mer codes of (A_j * code + B_j) mod P,
// P = 2^61 - 1, with the <A_j, B_j> pairs derived deterministically from a
// single 64-bit seed (the same min-wise scheme the shingling core uses,
// core/minhash.hpp). Two consumers share it and must stay bit-identical:
//
//   * store/signature + serve/bucket_index — per-representative snapshot
//     signatures (format v2) and the serve-tier bucketed seed index
//     (DESIGN.md §13);
//   * align/lsh_seeds — the build-side banded MinHash/LSH candidate
//     generator in front of the homology-graph verify cascade (§14).
//
// The derivation (seed xor, A/B draw order, apply formula, empty-slot
// value) is pinned by the committed v1/v2 snapshot fixtures: changing any
// of it silently invalidates every *.gpfi file on disk.

#include <span>
#include <string_view>
#include <vector>

#include "util/common.hpp"
#include "util/prime.hpp"

namespace gpclust::seq {

/// Slot value of an empty k-mer set (sequence shorter than k).
/// Distinguishable from every real minimum, which is < kMersenne61.
inline constexpr u64 kEmptySketchSlot = ~0ull;

/// The fixed permutation set <A_j, B_j> for j in [0, num_hashes), derived
/// deterministically from (num_hashes, seed) over modulus kMersenne61.
class SketchHashes {
 public:
  SketchHashes(u64 num_hashes, u64 seed);

  u64 size() const { return static_cast<u64>(a_.size()); }

  /// (A_j * (code mod P) + B_j) mod P by Mersenne folding — equal to
  /// (mulmod(A_j, code % P, P) + B_j) % P without a division: A_j, B_j and
  /// the product are all below P, so their sum is below 2P.
  u64 apply(std::size_t j, u64 code) const {
    return util::mod_mersenne61(
        util::mulmod_mersenne61(a_[j], util::mod_mersenne61(code)) + b_[j]);
  }

  /// Fills `out` (size() slots) with the min-hash sketch of `codes`;
  /// every slot is kEmptySketchSlot when `codes` is empty.
  void sketch(std::span<const u64> codes, std::span<u64> out) const;

 private:
  std::vector<u64> a_;
  std::vector<u64> b_;
};

/// Deterministic band-key mix (hash_combine style) over a band's sketch
/// slots. Collisions between different bands or different slot contents
/// only cost a false candidate that an exact recount filters, so mixing
/// quality is a constant-factor knob, not a correctness one. Shared by the
/// serve-side bucket table and the build-side LSH seed stage so a band key
/// means the same thing everywhere.
u64 band_key(u64 band, std::span<const u64> slots);

/// Appends the sorted distinct k-mer codes of `residues` to `out`
/// (cleared first); codes are base-kNumResidues over residue indices,
/// the same coding align/kmer_index and the store postings use. Empty
/// when the sequence is shorter than k.
void distinct_kmer_codes(std::string_view residues, std::size_t k,
                         std::vector<u64>& out);

}  // namespace gpclust::seq
