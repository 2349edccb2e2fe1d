#include "core/shingle.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "util/rng.hpp"

namespace gpclust::core {
namespace {

const AffineHash kIdentity{.a = 1, .b = 0, .p = util::kMersenne61};

TEST(MinSImages, SelectsSmallestImagesAscending) {
  const std::vector<VertexId> gamma = {9, 3, 7, 1, 5};
  std::vector<u64> out(3);
  min_s_images(gamma, kIdentity, 3, out);
  EXPECT_EQ(out, (std::vector<u64>{1, 3, 5}));
}

TEST(MinSImages, PadsWhenListShorterThanS) {
  const std::vector<VertexId> gamma = {4, 2};
  std::vector<u64> out(4);
  min_s_images(gamma, kIdentity, 4, out);
  EXPECT_EQ(out[0], 2u);
  EXPECT_EQ(out[1], 4u);
  EXPECT_EQ(out[2], kNoValue);
  EXPECT_EQ(out[3], kNoValue);
}

TEST(MinSImages, EmptyListAllPadding) {
  std::vector<u64> out(2);
  min_s_images({}, kIdentity, 2, out);
  EXPECT_EQ(out[0], kNoValue);
  EXPECT_EQ(out[1], kNoValue);
}

TEST(MinSImages, MatchesFullSortReference) {
  util::Xoshiro256 rng(5);
  const AffineHash h{.a = 987654321, .b = 123456789, .p = util::kMersenne61};
  for (int iter = 0; iter < 50; ++iter) {
    std::vector<VertexId> gamma(1 + rng.next_below(100));
    for (auto& v : gamma) v = static_cast<VertexId>(rng.next_below(1 << 20));
    std::sort(gamma.begin(), gamma.end());
    gamma.erase(std::unique(gamma.begin(), gamma.end()), gamma.end());

    const u32 s = 1 + static_cast<u32>(rng.next_below(8));
    std::vector<u64> fast(s);
    min_s_images(gamma, h, s, fast);

    std::vector<u64> reference;
    for (VertexId v : gamma) reference.push_back(h(v));
    std::sort(reference.begin(), reference.end());
    reference.resize(s, kNoValue);
    EXPECT_EQ(fast, reference);
  }
}

TEST(MinSImages, EveryScanMatchesFullSortAndHeapWithDuplicates) {
  // s = 2 takes the branch-free compare-exchange scan, the other sizes the
  // insertion scan; both must equal a full sort of the images and the heap
  // variant — with duplicate members (equal images kept with their
  // multiplicity), lists shorter than s, the default Mersenne modulus and
  // a generic one.
  util::Xoshiro256 rng(41);
  const AffineHash hashes[] = {
      {.a = 987654321, .b = 123456789, .p = util::kMersenne61},
      {.a = 3, .b = 1, .p = 1000003}};
  for (const AffineHash& h : hashes) {
    for (u32 s : {1u, 2u, 3u, 8u}) {
      for (int iter = 0; iter < 200; ++iter) {
        std::vector<VertexId> gamma(rng.next_below(3 * s + 2));
        for (auto& v : gamma) {
          v = static_cast<VertexId>(rng.next_below(iter % 2 ? 4 : 1 << 20));
        }
        std::vector<u64> scan(s), heap(s);
        min_s_images(gamma, h, s, scan);
        min_s_images_heap(gamma, h, s, heap);

        std::vector<u64> reference;
        for (VertexId v : gamma) reference.push_back(h(v));
        std::sort(reference.begin(), reference.end());
        reference.resize(s, kNoValue);
        EXPECT_EQ(scan, reference) << "s=" << s << " size=" << gamma.size();
        EXPECT_EQ(heap, reference) << "s=" << s << " size=" << gamma.size();
      }
    }
  }
}

TEST(MinSImages, OrderOfInputIrrelevant) {
  std::vector<VertexId> gamma = {10, 20, 30, 40, 50};
  std::vector<u64> a(2), b(2);
  const AffineHash h{.a = 123457, .b = 991, .p = util::kMersenne61};
  min_s_images(gamma, h, 2, a);
  std::reverse(gamma.begin(), gamma.end());
  min_s_images(gamma, h, 2, b);
  EXPECT_EQ(a, b);
}

TEST(MinSImagesHeap, MatchesInsertionSortVariant) {
  util::Xoshiro256 rng(7);
  const AffineHash h{.a = 1664525, .b = 1013904223, .p = util::kMersenne61};
  for (int iter = 0; iter < 60; ++iter) {
    std::vector<VertexId> gamma(rng.next_below(120));
    for (auto& v : gamma) v = static_cast<VertexId>(rng.next_below(1 << 24));
    const u32 s = 1 + static_cast<u32>(rng.next_below(10));
    std::vector<u64> insertion(s), heap(s);
    min_s_images(gamma, h, s, insertion);
    min_s_images_heap(gamma, h, s, heap);
    EXPECT_EQ(insertion, heap);
  }
}

TEST(MergeMinima, MergesTwoPartials) {
  std::vector<u64> a = {1, 5, 9};
  const std::vector<u64> b = {2, 3, 10};
  merge_minima(a, b);
  EXPECT_EQ(a, (std::vector<u64>{1, 2, 3}));
}

TEST(MergeMinima, HandlesPadding) {
  std::vector<u64> a = {4, kNoValue};
  const std::vector<u64> b = {7, kNoValue};
  merge_minima(a, b);
  EXPECT_EQ(a, (std::vector<u64>{4, 7}));
}

TEST(MergeMinima, BothEmptyStaysEmpty) {
  std::vector<u64> a = {kNoValue, kNoValue};
  const std::vector<u64> b = {kNoValue, kNoValue};
  merge_minima(a, b);
  EXPECT_EQ(a[0], kNoValue);
  EXPECT_EQ(a[1], kNoValue);
}

TEST(MergeMinima, EquivalentToSingleShotOverUnion) {
  // Splitting a list into two pieces and merging their s-minima must give
  // the same result as computing the s-minima of the whole list — the
  // invariant the batch-split CPU merge relies on.
  util::Xoshiro256 rng(13);
  const AffineHash h{.a = 22801763489ULL, .b = 7, .p = util::kMersenne61};
  for (int iter = 0; iter < 50; ++iter) {
    std::vector<VertexId> gamma(2 + rng.next_below(60));
    for (auto& v : gamma) v = static_cast<VertexId>(rng.next_below(1 << 22));
    const u32 s = 1 + static_cast<u32>(rng.next_below(6));
    const std::size_t cut = rng.next_below(gamma.size() + 1);

    std::vector<u64> whole(s), left(s), right(s);
    min_s_images(gamma, h, s, whole);
    min_s_images({gamma.data(), cut}, h, s, left);
    min_s_images({gamma.data() + cut, gamma.size() - cut}, h, s, right);
    merge_minima(left, right);
    EXPECT_EQ(left, whole);
  }
}

TEST(MergeMinima, SizeMismatchThrows) {
  std::vector<u64> a = {1, 2};
  const std::vector<u64> b = {1, 2, 3};
  EXPECT_THROW(merge_minima(a, b), InvalidArgument);
}

TEST(HashShingle, SameMinimaSameTrialSameId) {
  const std::vector<u64> m = {10, 20};
  EXPECT_EQ(hash_shingle(3, m), hash_shingle(3, m));
}

TEST(HashShingle, TrialsDoNotMix) {
  // "This [sorting] is done once for each random trial (so that shingles
  // from different trials do not get mixed)."
  const std::vector<u64> m = {10, 20};
  EXPECT_NE(hash_shingle(0, m), hash_shingle(1, m));
}

TEST(HashShingle, DifferentMinimaDifferentIds) {
  EXPECT_NE(hash_shingle(0, std::vector<u64>{10, 20}),
            hash_shingle(0, std::vector<u64>{10, 21}));
  EXPECT_NE(hash_shingle(0, std::vector<u64>{10, 20}),
            hash_shingle(0, std::vector<u64>{20, 10}));
}

TEST(HashShingle, IncompleteMinimaYieldNoShingle) {
  EXPECT_EQ(hash_shingle(0, std::vector<u64>{10, kNoValue}), kNoValue);
  EXPECT_EQ(hash_shingle(5, std::vector<u64>{kNoValue}), kNoValue);
}

}  // namespace
}  // namespace gpclust::core
