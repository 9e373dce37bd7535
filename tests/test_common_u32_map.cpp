// U32Map: the flat open-addressing map behind CircuitTable.  Backward-
// shift deletion is the risky part, so the core test is a randomized
// churn differential against std::unordered_map.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "common/u32_map.hpp"

namespace risa {
namespace {

TEST(U32Map, InsertFindErase) {
  U32Map<int> map;
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.find(3), nullptr);

  map.find_or_insert(3) = 30;
  map.find_or_insert(5) = 50;
  EXPECT_EQ(map.size(), 2u);
  ASSERT_NE(map.find(3), nullptr);
  EXPECT_EQ(*map.find(3), 30);
  EXPECT_EQ(*map.find(5), 50);

  // find_or_insert on a present key returns the existing value.
  map.find_or_insert(3) += 1;
  EXPECT_EQ(*map.find(3), 31);

  EXPECT_TRUE(map.erase(3));
  EXPECT_FALSE(map.erase(3));
  EXPECT_EQ(map.find(3), nullptr);
  EXPECT_EQ(map.size(), 1u);
}

TEST(U32Map, ReservedSentinelKeyThrows) {
  U32Map<int> map;
  EXPECT_THROW(map.find_or_insert(0xFFFFFFFFu), std::invalid_argument);
  EXPECT_EQ(map.find(0xFFFFFFFFu), nullptr);
  EXPECT_FALSE(map.erase(0xFFFFFFFFu));
  // The largest legal key works.
  map.find_or_insert(0xFFFFFFFEu) = 1;
  EXPECT_EQ(*map.find(0xFFFFFFFEu), 1);
}

TEST(U32Map, ClearRetainsCapacityAndResetsValues) {
  U32Map<std::vector<int>> map;
  for (std::uint32_t i = 0; i < 100; ++i) {
    map.find_or_insert(i).assign(4, static_cast<int>(i));
  }
  const std::size_t cap = map.capacity();
  map.clear();
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.capacity(), cap);
  EXPECT_EQ(map.find(7), nullptr);
  // Reclaimed slots must hand back freshly constructed values.
  EXPECT_TRUE(map.find_or_insert(7).empty());
}

TEST(U32Map, ReservePreventsRehash) {
  U32Map<int> map;
  map.reserve(1000);
  const std::size_t cap = map.capacity();
  for (std::uint32_t i = 0; i < 1000; ++i) map.find_or_insert(i) = 1;
  EXPECT_EQ(map.capacity(), cap);
}

TEST(U32Map, ForEachVisitsEveryEntryOnce) {
  U32Map<std::uint64_t> map;
  std::uint64_t want_sum = 0;
  for (std::uint32_t i = 1; i <= 500; ++i) {
    map.find_or_insert(i * 17) = i;
    want_sum += i;
  }
  std::uint64_t sum = 0;
  std::size_t visits = 0;
  map.for_each([&](std::uint32_t key, const std::uint64_t& v) {
    EXPECT_EQ(key, v * 17);
    sum += v;
    ++visits;
  });
  EXPECT_EQ(visits, 500u);
  EXPECT_EQ(sum, want_sum);
}

TEST(U32Map, RandomChurnMatchesUnorderedMap) {
  // Sequential-ish keys with heavy insert/erase churn -- the engine's
  // access pattern -- checked operation by operation against the STL map.
  Rng rng(1234);
  U32Map<std::string> map;
  std::unordered_map<std::uint32_t, std::string> ref;

  for (int op = 0; op < 50000; ++op) {
    const auto key = static_cast<std::uint32_t>(rng.uniform_int(0, 799));
    const auto action = rng.uniform_int(0, 9);
    if (action < 5) {
      std::string value = "v";
      value += std::to_string(op);
      map.find_or_insert(key) = value;
      ref[key] = value;
    } else if (action < 8) {
      EXPECT_EQ(map.erase(key), ref.erase(key) > 0) << "key " << key;
    } else {
      const std::string* found = map.find(key);
      const auto it = ref.find(key);
      if (it == ref.end()) {
        EXPECT_EQ(found, nullptr) << "key " << key;
      } else {
        ASSERT_NE(found, nullptr) << "key " << key;
        EXPECT_EQ(*found, it->second);
      }
    }
    ASSERT_EQ(map.size(), ref.size());
  }

  // Full sweep at the end: every surviving key agrees.
  for (const auto& [key, value] : ref) {
    const std::string* found = map.find(key);
    ASSERT_NE(found, nullptr) << "key " << key;
    EXPECT_EQ(*found, value);
  }
  std::size_t visits = 0;
  map.for_each([&](std::uint32_t key, const std::string&) {
    EXPECT_EQ(ref.count(key), 1u);
    ++visits;
  });
  EXPECT_EQ(visits, ref.size());
}

TEST(U32Map, DrainToEmptyAndRefill) {
  U32Map<int> map;
  for (std::uint32_t i = 0; i < 300; ++i) map.find_or_insert(i) = 1;
  for (std::uint32_t i = 0; i < 300; ++i) EXPECT_TRUE(map.erase(i));
  EXPECT_TRUE(map.empty());
  for (std::uint32_t i = 1000; i < 1300; ++i) map.find_or_insert(i) = 2;
  EXPECT_EQ(map.size(), 300u);
  for (std::uint32_t i = 1000; i < 1300; ++i) {
    ASSERT_NE(map.find(i), nullptr);
    EXPECT_EQ(*map.find(i), 2);
  }
}

}  // namespace
}  // namespace risa
