#include "store/signature.hpp"

#include <span>
#include <vector>

#include "util/group_by.hpp"

namespace gpclust::store {

namespace {

/// Below this many (code, hash) evaluations per worker, sketch on the
/// calling thread.
constexpr std::size_t kMinHashesPerWorker = std::size_t{1} << 16;

}  // namespace

void build_rep_signatures(FamilyStore& store) {
  GPCLUST_CHECK(store.sig_num_hashes >= 1,
                "store has no signature parameters");
  const SignatureHashes hashes(store.sig_num_hashes, store.sig_seed);
  const std::size_t num_reps = store.representatives.size();
  store.signatures.assign(num_reps * store.sig_num_hashes,
                          kEmptySignatureSlot);

  // Group the (code, rep)-sorted postings by representative: count, prefix
  // sum, place. Within one rep the codes land in ascending order because
  // the placement pass scans the postings in code order.
  std::vector<u64> counts(num_reps + 1, 0);
  for (const RepPosting& p : store.postings) ++counts[p.rep + 1];
  for (std::size_t r = 0; r < num_reps; ++r) counts[r + 1] += counts[r];
  std::vector<u64> codes(store.postings.size());
  {
    std::vector<u64> cursor(counts.begin(), counts.end() - 1);
    for (const RepPosting& p : store.postings) codes[cursor[p.rep]++] = p.code;
  }
  // Every representative's sketch is independent: split them across the
  // default pool once there is enough hashing to amortize the dispatch.
  util::for_ranges(
      util::group_by_workers(codes.size() * store.sig_num_hashes,
                             kMinHashesPerWorker),
      num_reps, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t r = lo; r < hi; ++r) {
          hashes.sketch(std::span<const u64>(codes).subspan(
                            counts[r], counts[r + 1] - counts[r]),
                        std::span<u64>(store.signatures)
                            .subspan(r * store.sig_num_hashes,
                                     store.sig_num_hashes));
        }
      });
}

}  // namespace gpclust::store
