// Tests for src/rel: values, codec, row stores, buffer pool, indexes,
// tables, database catalog, lock manager.

#include <span>
#include <thread>

#include "gtest/gtest.h"
#include "json/json_parser.h"
#include "rel/codec.h"
#include "rel/database.h"
#include "rel/lock_manager.h"
#include "util/rng.h"

namespace sqlgraph {
namespace rel {
namespace {

// ------------------------------------------------------------------ Value --

TEST(ValueTest, NullAndTypes) {
  EXPECT_TRUE(Value().is_null());
  EXPECT_TRUE(Value(7).is_int());
  EXPECT_TRUE(Value(0.5).is_double());
  EXPECT_TRUE(Value("x").is_string());
  EXPECT_TRUE(Value(true).is_bool());
  EXPECT_TRUE(Value(json::JsonValue::Object()).is_json());
}

TEST(ValueTest, CrossTypeNumericCompare) {
  EXPECT_EQ(Value(3).Compare(Value(3.0)), 0);
  EXPECT_LT(Value(2).Compare(Value(2.5)), 0);
  EXPECT_GT(Value(3.5).Compare(Value(3)), 0);
}

TEST(ValueTest, TypeRankOrdering) {
  // NULL < bool < number < string < json
  EXPECT_LT(Value().Compare(Value(false)), 0);
  EXPECT_LT(Value(true).Compare(Value(0)), 0);
  EXPECT_LT(Value(999).Compare(Value("a")), 0);
  EXPECT_LT(Value("zzz").Compare(Value(json::JsonValue::Object())), 0);
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value(3).Hash(), Value(3.0).Hash());
  EXPECT_EQ(Value("abc").Hash(), Value("abc").Hash());
  EXPECT_EQ(Value().Hash(), Value().Hash());
}

TEST(ValueTest, ToStringForms) {
  EXPECT_EQ(Value().ToString(), "NULL");
  EXPECT_EQ(Value(42).ToString(), "42");
  EXPECT_EQ(Value("hi").ToString(), "hi");
  EXPECT_EQ(Value(true).ToString(), "true");
}

TEST(IndexKeyTest, CompositeOrderingAndEquality) {
  IndexKey a{{Value(1), Value("x")}};
  IndexKey b{{Value(1), Value("y")}};
  IndexKey c{{Value(1), Value("x")}};
  EXPECT_TRUE(a < b);
  EXPECT_FALSE(b < a);
  EXPECT_TRUE(a == c);
  EXPECT_EQ(IndexKeyHash{}(a), IndexKeyHash{}(c));
}

// ------------------------------------------------------------------ Codec --

TEST(CodecTest, VarintRoundTrip) {
  std::string buf;
  for (uint64_t v : {0ull, 1ull, 127ull, 128ull, 300ull, 1ull << 40,
                     ~0ull}) {
    buf.clear();
    PutVarint(v, &buf);
    size_t offset = 0;
    uint64_t out = 0;
    ASSERT_TRUE(GetVarint(buf, &offset, &out).ok());
    EXPECT_EQ(out, v);
    EXPECT_EQ(offset, buf.size());
  }
}

TEST(CodecTest, RowRoundTripAllTypes) {
  json::JsonValue obj = json::JsonValue::Object();
  obj.Set("name", "marko");
  obj.Set("age", 29);
  Row row{Value(), Value(true), Value(-42), Value(2.718), Value("text"),
          Value(obj)};
  std::string buf;
  EncodeRow(row, &buf);
  size_t offset = 0;
  Row decoded;
  ASSERT_TRUE(DecodeRow(buf, row.size(), &offset, &decoded).ok());
  ASSERT_EQ(decoded.size(), row.size());
  for (size_t i = 0; i < row.size(); ++i) {
    EXPECT_EQ(decoded[i], row[i]) << "column " << i;
  }
  EXPECT_EQ(offset, buf.size());
}

// The row format is the on-disk page and snapshot format: pin its bytes.
// DecodeValue hands a JSON document back as its stored text, unparsed.
TEST(CodecTest, EncodeRowBytesArePinnedAndJsonDecodesAsText) {
  json::JsonValue doc = json::JsonValue::Object();
  json::JsonValue arr = json::JsonValue::Array();
  arr.MutableArray().push_back(json::JsonValue(1));
  doc.Set("k", std::move(arr));
  const Row row = {Value(), Value(false), Value(true), Value(1), Value(0.5),
                   Value("ab"), Value(doc)};
  std::string buf;
  EncodeRow(row, &buf);
  const std::string expected(
      "\x00\x01\x02"
      "\x03\x01\x00\x00\x00\x00\x00\x00\x00"
      "\x04\x00\x00\x00\x00\x00\x00\xe0\x3f"
      "\x05\x02" "ab"
      "\x06\x09" "{\"k\":[1]}",
      36);
  EXPECT_EQ(buf, expected);

  size_t offset = 0;
  for (size_t i = 0; i + 1 < row.size(); ++i) {
    Value v;
    bool json_text = true;
    ASSERT_TRUE(DecodeValue(buf, &offset, &v, &json_text).ok());
    EXPECT_FALSE(json_text);
    EXPECT_EQ(v, row[i]);
  }
  Value v;
  bool json_text = false;
  ASSERT_TRUE(DecodeValue(buf, &offset, &v, &json_text).ok());
  EXPECT_TRUE(json_text);
  EXPECT_EQ(v.AsString(), "{\"k\":[1]}");
  EXPECT_EQ(offset, buf.size());
}

TEST(CodecTest, MultipleRowsSequential) {
  std::string buf;
  EncodeRow({Value(1), Value("a")}, &buf);
  EncodeRow({Value(2), Value("b")}, &buf);
  size_t offset = 0;
  Row r1, r2;
  ASSERT_TRUE(DecodeRow(buf, 2, &offset, &r1).ok());
  ASSERT_TRUE(DecodeRow(buf, 2, &offset, &r2).ok());
  EXPECT_EQ(r1[0].AsInt(), 1);
  EXPECT_EQ(r2[1].AsString(), "b");
}

TEST(CodecTest, TruncatedBufferFails) {
  std::string buf;
  EncodeRow({Value("long string value")}, &buf);
  std::string cut = buf.substr(0, buf.size() - 3);
  size_t offset = 0;
  Row out;
  EXPECT_FALSE(DecodeRow(cut, 1, &offset, &out).ok());
}

// -------------------------------------------------------------- RowStores --

template <typename T>
std::unique_ptr<RowStore> MakeStore(BufferPool* pool);

template <>
std::unique_ptr<RowStore> MakeStore<VectorRowStore>(BufferPool*) {
  return std::make_unique<VectorRowStore>();
}
template <>
std::unique_ptr<RowStore> MakeStore<PagedRowStore>(BufferPool* pool) {
  return std::make_unique<PagedRowStore>(pool, 2, /*rows_per_page=*/4);
}

template <typename T>
class RowStoreTest : public ::testing::Test {
 protected:
  BufferPool pool_{1 << 20};
  std::unique_ptr<RowStore> store_ = MakeStore<T>(&pool_);
};

using StoreTypes = ::testing::Types<VectorRowStore, PagedRowStore>;
TYPED_TEST_SUITE(RowStoreTest, StoreTypes);

TYPED_TEST(RowStoreTest, AppendGet) {
  RowId rid = this->store_->Append({Value(1), Value("a")});
  Row out;
  ASSERT_TRUE(this->store_->Get(rid, &out).ok());
  EXPECT_EQ(out[0].AsInt(), 1);
  EXPECT_EQ(out[1].AsString(), "a");
}

TYPED_TEST(RowStoreTest, DenseRowIds) {
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(this->store_->Append({Value(i), Value("r")}),
              static_cast<RowId>(i));
  }
  EXPECT_EQ(this->store_->NumLive(), 10u);
}

TYPED_TEST(RowStoreTest, UpdateInPlace) {
  RowId rid = this->store_->Append({Value(1), Value("a")});
  for (int i = 0; i < 10; ++i) this->store_->Append({Value(i), Value("pad")});
  ASSERT_TRUE(this->store_->Update(rid, {Value(2), Value("b")}).ok());
  Row out;
  ASSERT_TRUE(this->store_->Get(rid, &out).ok());
  EXPECT_EQ(out[0].AsInt(), 2);
  EXPECT_EQ(out[1].AsString(), "b");
}

TYPED_TEST(RowStoreTest, DeleteTombstones) {
  RowId rid = this->store_->Append({Value(1), Value("a")});
  ASSERT_TRUE(this->store_->Delete(rid).ok());
  EXPECT_FALSE(this->store_->IsLive(rid));
  Row out;
  EXPECT_TRUE(this->store_->Get(rid, &out).IsNotFound());
  EXPECT_TRUE(this->store_->Delete(rid).IsNotFound());
  EXPECT_EQ(this->store_->NumLive(), 0u);
  EXPECT_EQ(this->store_->NumSlots(), 1u);
}

TYPED_TEST(RowStoreTest, ScanVisitsLiveInOrder) {
  for (int i = 0; i < 20; ++i) this->store_->Append({Value(i), Value("r")});
  ASSERT_TRUE(this->store_->Delete(3).ok());
  ASSERT_TRUE(this->store_->Delete(17).ok());
  std::vector<int64_t> seen;
  this->store_->Scan(
      [&](RowId, const Row& row) { seen.push_back(row[0].AsInt()); });
  EXPECT_EQ(seen.size(), 18u);
  EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
  for (int64_t v : seen) {
    EXPECT_NE(v, 3);
    EXPECT_NE(v, 17);
  }
}

TYPED_TEST(RowStoreTest, GetBeyondEndFails) {
  Row out;
  EXPECT_FALSE(this->store_->Get(99, &out).ok());
}

TEST(PagedRowStoreTest, SurvivesEviction) {
  BufferPool pool(1);  // effectively zero cache: every access decodes
  PagedRowStore store(&pool, 1, 4);
  for (int i = 0; i < 100; ++i) store.Append({Value(i)});
  Row out;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(store.Get(static_cast<RowId>(i), &out).ok());
    EXPECT_EQ(out[0].AsInt(), i);
  }
  EXPECT_GT(pool.misses(), 0u);
}

TEST(PagedRowStoreTest, CacheHitsWithLargePool) {
  BufferPool pool(16 << 20);
  PagedRowStore store(&pool, 1, 4);
  for (int i = 0; i < 64; ++i) store.Append({Value(i)});
  Row out;
  for (int rep = 0; rep < 3; ++rep) {
    for (int i = 0; i < 64; ++i) {
      ASSERT_TRUE(store.Get(static_cast<RowId>(i), &out).ok());
    }
  }
  EXPECT_GT(pool.hits(), pool.misses());
}

TEST(PagedRowStoreTest, UpdateRewritesSealedPage) {
  BufferPool pool(1 << 20);
  PagedRowStore store(&pool, 1, 2);
  for (int i = 0; i < 10; ++i) store.Append({Value(i)});
  ASSERT_TRUE(store.Update(0, {Value(1000)}).ok());
  pool.Clear();  // force re-decode from the blob
  Row out;
  ASSERT_TRUE(store.Get(0, &out).ok());
  EXPECT_EQ(out[0].AsInt(), 1000);
}

TEST(PagedRowStoreTest, SerializedBytesTracked) {
  BufferPool pool(1 << 20);
  PagedRowStore store(&pool, 1, 4);
  EXPECT_EQ(store.SerializedBytes(), 0u);
  for (int i = 0; i < 16; ++i) store.Append({Value(std::string(100, 'x'))});
  EXPECT_GT(store.SerializedBytes(), 1000u);
}

// Paged vs resident property test: the same random mutation stream lands in
// a resident table and in a paged one whose pool holds about two pages, so
// pages are evicted and re-decoded throughout. Every Get and every Scan,
// each with a random column list, must agree.

json::JsonValue RandomJson(util::Rng* rng, int depth) {
  switch (rng->Uniform(depth > 0 ? 8 : 5)) {
    case 0: return json::JsonValue();
    case 1: return json::JsonValue(rng->Chance(0.5));
    case 2: return json::JsonValue(rng->UniformRange(-1000, 1000));
    case 3: return json::JsonValue(rng->NextDouble() * 1e6 - 5e5);
    case 4: {
      static const char* kTexts[] = {"", "plain", "quote\"d", "back\\slash",
                                     "new\nline\ttab", "caf\xc3\xa9 \u00e9",
                                     "{\"not\": [json]}"};
      return json::JsonValue(std::string(kTexts[rng->Uniform(7)]));
    }
    case 5: return json::JsonValue::Object();  // empty
    case 6: {
      json::JsonValue arr = json::JsonValue::Array();
      const size_t n = rng->Uniform(4);
      for (size_t i = 0; i < n; ++i) {
        arr.MutableArray().push_back(RandomJson(rng, depth - 1));
      }
      return arr;
    }
    default: {
      json::JsonValue obj = json::JsonValue::Object();
      const size_t n = 1 + rng->Uniform(4);
      for (size_t i = 0; i < n; ++i) {
        obj.Set("k" + std::to_string(rng->Uniform(6)) + "\"",
                RandomJson(rng, depth - 1));
      }
      return obj;
    }
  }
}

Schema MixedSchema() {
  Schema s;
  s.AddColumn("id", ColumnType::kInt64, /*nullable=*/false);
  s.AddColumn("name", ColumnType::kString);
  s.AddColumn("score", ColumnType::kDouble);
  s.AddColumn("doc", ColumnType::kJson);
  s.AddColumn("tags", ColumnType::kJson);
  return s;
}

Row RandomMixedRow(util::Rng* rng, int64_t id) {
  auto maybe_null = [&](Value v) { return rng->Chance(0.2) ? Value() : v; };
  return {Value(id), maybe_null(Value(rng->NextString(rng->Uniform(12)))),
          maybe_null(Value(rng->NextDouble() * 100 - 50)),
          maybe_null(Value(RandomJson(rng, 3))),
          maybe_null(Value(RandomJson(rng, 2)))};
}

std::vector<std::pair<RowId, Row>> ScanAll(const Table& t,
                                           std::span<const int> columns = {}) {
  std::vector<std::pair<RowId, Row>> out;
  t.Scan([&](RowId rid, const Row& row) { out.emplace_back(rid, row); },
         columns);
  return out;
}

TEST(PagedRowStorePropertyTest, AgreesWithResidentUnderEviction) {
  constexpr size_t kColumns = 5;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    util::Rng rng(seed * 7919);
    BufferPool pool(1200);
    Table paged("p", MixedSchema(),
                std::make_unique<PagedRowStore>(&pool, kColumns, 4));
    Table resident("r", MixedSchema(), std::make_unique<VectorRowStore>());
    std::vector<RowId> live, dead;
    RowId slots = 0;
    int64_t next_id = 0;
    uint64_t ts = 1;

    // Empty (whole row) 30% of the time; otherwise 1-5 columns, repeats
    // and any order allowed.
    auto random_columns = [&] {
      std::vector<int> columns;
      if (rng.Chance(0.7)) {
        const size_t n = 1 + rng.Uniform(kColumns);
        for (size_t i = 0; i < n; ++i) {
          columns.push_back(static_cast<int>(rng.Uniform(kColumns)));
        }
      }
      return columns;
    };
    auto check_get = [&](RowId rid) {
      const std::vector<int> columns = random_columns();
      Row a, b;
      const util::Status sa = paged.Get(rid, &a, columns);
      const util::Status sb = resident.Get(rid, &b, columns);
      ASSERT_EQ(sa.ok(), sb.ok()) << "rid " << rid;
      if (!sa.ok()) return;
      ASSERT_EQ(a.size(), columns.empty() ? kColumns : columns.size());
      EXPECT_EQ(a, b) << "rid " << rid;
      for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].is_json(), b[i].is_json()) << "rid " << rid;
      }
    };
    // Both tables scan alike with a random column list, and that scan is
    // the whole-row scan cut down to those columns.
    auto check_scan = [&] {
      const std::vector<int> columns = random_columns();
      const auto scanned = ScanAll(paged, columns);
      ASSERT_EQ(scanned, ScanAll(resident, columns));
      auto whole = ScanAll(resident);
      ASSERT_EQ(scanned.size(), whole.size());
      for (size_t i = 0; i < whole.size(); ++i) {
        Row cut;
        for (int c : columns) cut.push_back(whole[i].second[c]);
        if (columns.empty()) cut = whole[i].second;
        ASSERT_EQ(scanned[i].first, whole[i].first);
        ASSERT_EQ(scanned[i].second, cut) << "rid " << whole[i].first;
      }
    };
    // One mutation applied to both tables; `version_ts` != 0 logs it.
    auto mutate = [&](uint64_t version_ts) {
      const uint64_t op = rng.Uniform(10);
      if (op < 4 || live.empty()) {
        Row row = RandomMixedRow(&rng, next_id++);
        auto ra = paged.Insert(row, version_ts);
        auto rb = resident.Insert(std::move(row), version_ts);
        ASSERT_TRUE(ra.ok() && rb.ok());
        ASSERT_EQ(*ra, *rb);
        ASSERT_EQ(*ra, slots++);
        live.push_back(*ra);
      } else if (op < 7) {
        const RowId rid = live[rng.Uniform(live.size())];
        Row row = RandomMixedRow(&rng, next_id++);
        ASSERT_TRUE(paged.Update(rid, row, version_ts).ok());
        ASSERT_TRUE(resident.Update(rid, std::move(row), version_ts).ok());
      } else if (op < 9 || dead.empty() || version_ts != 0) {
        // (RestoreRow is the unwind primitive itself and is not logged, so
        // logged batches do not use it.)
        const size_t i = rng.Uniform(live.size());
        const RowId rid = live[i];
        ASSERT_TRUE(paged.Delete(rid, version_ts).ok());
        ASSERT_TRUE(resident.Delete(rid, version_ts).ok());
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
        dead.push_back(rid);
      } else {
        const size_t i = rng.Uniform(dead.size());
        const RowId rid = dead[i];
        Row row = RandomMixedRow(&rng, next_id++);
        ASSERT_TRUE(paged.RestoreRow(rid, row).ok());
        ASSERT_TRUE(resident.RestoreRow(rid, std::move(row)).ok());
        dead.erase(dead.begin() + static_cast<std::ptrdiff_t>(i));
        live.push_back(rid);
      }
    };

    for (int step = 0; step < 400; ++step) {
      if (rng.Chance(0.1)) {
        // A logged batch, then either a commit-unwind or a trim.
        const uint64_t batch_ts = ts++;
        for (int k = 0; k < 3; ++k) {
          ASSERT_NO_FATAL_FAILURE(mutate(batch_ts));
        }
        if (rng.Chance(0.5)) {
          ASSERT_TRUE(paged.RevertVersionsAt(batch_ts).ok());
          ASSERT_TRUE(resident.RevertVersionsAt(batch_ts).ok());
          // An unwound insert leaves a tombstoned slot behind.
          live.clear();
          dead.clear();
          for (RowId rid = 0; rid < slots; ++rid) {
            (resident.IsLive(rid) ? live : dead).push_back(rid);
          }
        } else {
          paged.TrimVersions(batch_ts);
          resident.TrimVersions(batch_ts);
        }
      } else {
        ASSERT_NO_FATAL_FAILURE(mutate(0));
      }
      for (int k = 0; k < 4; ++k) {
        ASSERT_NO_FATAL_FAILURE(
            check_get(static_cast<RowId>(rng.Uniform(slots + 2))));
      }
      if (step % 25 == 0) {
        ASSERT_NO_FATAL_FAILURE(check_scan());
      }
    }
    ASSERT_NO_FATAL_FAILURE(check_scan());
    ASSERT_EQ(ScanAll(paged), ScanAll(resident));
    ASSERT_EQ(paged.NumRows(), resident.NumRows());
    for (RowId rid = 0; rid < slots; ++rid) {
      ASSERT_NO_FATAL_FAILURE(check_get(rid));
    }
    EXPECT_GT(pool.evictions(), 0u);
  }
}

// ------------------------------------------------------------ BufferPool --

TEST(BufferPoolTest, LruEvictsOldest) {
  BufferPool pool(300);
  auto page = [](size_t bytes) {
    auto p = std::make_shared<DecodedPage>();
    p->byte_size = bytes;
    return p;
  };
  pool.Insert({1, 0}, page(100));
  pool.Insert({1, 1}, page(100));
  pool.Insert({1, 2}, page(100));
  EXPECT_NE(pool.Lookup({1, 0}), nullptr);  // touch 0 → 1 is now LRU
  pool.Insert({1, 3}, page(100));           // evicts 1
  EXPECT_EQ(pool.Lookup({1, 1}), nullptr);
  EXPECT_NE(pool.Lookup({1, 0}), nullptr);
  EXPECT_NE(pool.Lookup({1, 3}), nullptr);
}

TEST(BufferPoolTest, CapacityShrinkEvicts) {
  BufferPool pool(1000);
  for (uint32_t i = 0; i < 5; ++i) {
    auto p = std::make_shared<DecodedPage>();
    p->byte_size = 100;
    pool.Insert({1, i}, p);
  }
  EXPECT_EQ(pool.cached_bytes(), 500u);
  pool.set_capacity(250);
  EXPECT_LE(pool.cached_bytes(), 250u);
}

TEST(BufferPoolTest, InvalidateStoreDropsOnlyThatStore) {
  BufferPool pool(10000);
  auto p = std::make_shared<DecodedPage>();
  p->byte_size = 10;
  pool.Insert({1, 0}, p);
  pool.Insert({2, 0}, p);
  pool.InvalidateStore(1);
  EXPECT_EQ(pool.Lookup({1, 0}), nullptr);
  EXPECT_NE(pool.Lookup({2, 0}), nullptr);
}

// ---------------------------------------------------------------- Indexes --

TEST(HashIndexTest, InsertLookupRemove) {
  HashIndex idx("i", {0}, false);
  ASSERT_TRUE(idx.Insert({{Value(1)}}, 10).ok());
  ASSERT_TRUE(idx.Insert({{Value(1)}}, 11).ok());
  ASSERT_TRUE(idx.Insert({{Value(2)}}, 12).ok());
  std::vector<RowId> hits;
  idx.Lookup({{Value(1)}}, &hits);
  EXPECT_EQ(hits.size(), 2u);
  idx.Remove({{Value(1)}}, 10);
  hits.clear();
  idx.Lookup({{Value(1)}}, &hits);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], 11u);
  EXPECT_EQ(idx.NumDistinctKeys(), 2u);
  EXPECT_EQ(idx.NumEntries(), 2u);
}

TEST(HashIndexTest, UniqueRejectsDuplicates) {
  HashIndex idx("u", {0}, true);
  ASSERT_TRUE(idx.Insert({{Value(1)}}, 10).ok());
  EXPECT_FALSE(idx.Insert({{Value(1)}}, 11).ok());
}

TEST(OrderedIndexTest, RangeScan) {
  OrderedIndex idx("o", {0}, false);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(idx.Insert({{Value(i)}}, static_cast<RowId>(i)).ok());
  }
  std::vector<RowId> hits;
  idx.Range(Value(3), true, Value(6), true, &hits);
  EXPECT_EQ(hits.size(), 4u);
  hits.clear();
  idx.Range(Value(3), false, Value(6), false, &hits);
  EXPECT_EQ(hits.size(), 2u);
  hits.clear();
  idx.Range(Value::Null(), true, Value(2), true, &hits);
  EXPECT_EQ(hits.size(), 3u);  // 0,1,2 (no null keys present)
  hits.clear();
  idx.Range(Value(8), true, Value::Null(), true, &hits);
  EXPECT_EQ(hits.size(), 2u);  // 8,9
}

TEST(OrderedIndexTest, RangeWithStrings) {
  OrderedIndex idx("o", {0}, false);
  ASSERT_TRUE(idx.Insert({{Value("apple")}}, 1).ok());
  ASSERT_TRUE(idx.Insert({{Value("applesauce")}}, 2).ok());
  ASSERT_TRUE(idx.Insert({{Value("banana")}}, 3).ok());
  std::vector<RowId> hits;
  std::string hi = "apple";
  hi.push_back('\xff');
  idx.Range(Value("apple"), true, Value(hi), false, &hits);
  EXPECT_EQ(hits.size(), 2u);
}

// ------------------------------------------------------------------ Table --

Schema TwoColSchema() {
  Schema s;
  s.AddColumn("id", ColumnType::kInt64, /*nullable=*/false);
  s.AddColumn("name", ColumnType::kString);
  return s;
}

TEST(TableTest, InsertValidatesArityAndTypes) {
  Table t("t", TwoColSchema(), std::make_unique<VectorRowStore>());
  EXPECT_TRUE(t.Insert({Value(1), Value("a")}).ok());
  EXPECT_FALSE(t.Insert({Value(1)}).ok());               // arity
  EXPECT_FALSE(t.Insert({Value("x"), Value("a")}).ok()); // type
  EXPECT_FALSE(t.Insert({Value(), Value("a")}).ok());    // non-nullable
  EXPECT_TRUE(t.Insert({Value(2), Value()}).ok());       // nullable ok
}

TEST(TableTest, IndexMaintainedAcrossCrud) {
  Table t("t", TwoColSchema(), std::make_unique<VectorRowStore>());
  ASSERT_TRUE(t.CreateIndex("t_name", {"name"}, IndexKind::kHash).ok());
  auto r1 = t.Insert({Value(1), Value("a")});
  auto r2 = t.Insert({Value(2), Value("a")});
  ASSERT_TRUE(r1.ok() && r2.ok());
  auto hits = t.LookupEq({1}, {{Value("a")}});
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(hits->size(), 2u);
  ASSERT_TRUE(t.Update(*r1, {Value(1), Value("b")}).ok());
  hits = t.LookupEq({1}, {{Value("a")}});
  EXPECT_EQ(hits->size(), 1u);
  hits = t.LookupEq({1}, {{Value("b")}});
  EXPECT_EQ(hits->size(), 1u);
  ASSERT_TRUE(t.Delete(*r2).ok());
  hits = t.LookupEq({1}, {{Value("a")}});
  EXPECT_EQ(hits->size(), 0u);
}

TEST(TableTest, UniqueIndexConflictRollsBack) {
  Table t("t", TwoColSchema(), std::make_unique<VectorRowStore>());
  ASSERT_TRUE(
      t.CreateIndex("t_pk", {"id"}, IndexKind::kHash, /*unique=*/true).ok());
  ASSERT_TRUE(t.Insert({Value(1), Value("a")}).ok());
  auto dup = t.Insert({Value(1), Value("b")});
  EXPECT_TRUE(dup.status().IsConflict());
  EXPECT_EQ(t.NumRows(), 1u);
}

TEST(TableTest, BackfillIndexOnExistingRows) {
  Table t("t", TwoColSchema(), std::make_unique<VectorRowStore>());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(t.Insert({Value(i), Value(i % 2 ? "odd" : "even")}).ok());
  }
  ASSERT_TRUE(t.CreateIndex("t_name", {"name"}, IndexKind::kHash).ok());
  auto hits = t.LookupEq({1}, {{Value("odd")}});
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(hits->size(), 5u);
}

TEST(TableTest, JsonFunctionalIndex) {
  Schema s;
  s.AddColumn("vid", ColumnType::kInt64, false);
  s.AddColumn("attr", ColumnType::kJson);
  Table t("va", std::move(s), std::make_unique<VectorRowStore>());
  auto mkattr = [](const std::string& name, int age) {
    json::JsonValue o = json::JsonValue::Object();
    o.Set("name", name);
    o.Set("age", age);
    return Value(o);
  };
  ASSERT_TRUE(t.Insert({Value(1), mkattr("marko", 29)}).ok());
  ASSERT_TRUE(t.Insert({Value(2), mkattr("vadas", 27)}).ok());
  ASSERT_TRUE(t.CreateJsonIndex("va_name", "attr", "name",
                                IndexKind::kHash).ok());
  const Index* idx = t.FindJsonIndex(1, "name", IndexKind::kHash);
  ASSERT_NE(idx, nullptr);
  std::vector<RowId> hits;
  idx->Lookup({{Value("marko")}}, &hits);
  ASSERT_EQ(hits.size(), 1u);
  Row row;
  ASSERT_TRUE(t.Get(hits[0], &row).ok());
  EXPECT_EQ(row[0].AsInt(), 1);
  // Maintained on update.
  ASSERT_TRUE(t.Update(hits[0], {Value(1), mkattr("marco", 29)}).ok());
  hits.clear();
  idx->Lookup({{Value("marko")}}, &hits);
  EXPECT_TRUE(hits.empty());
  hits.clear();
  idx->Lookup({{Value("marco")}}, &hits);
  EXPECT_EQ(hits.size(), 1u);
}

TEST(TableTest, FindIndexDistinguishesJsonFromPlain) {
  Schema s;
  s.AddColumn("vid", ColumnType::kInt64, false);
  s.AddColumn("attr", ColumnType::kJson);
  Table t("va", std::move(s), std::make_unique<VectorRowStore>());
  ASSERT_TRUE(t.CreateJsonIndex("j", "attr", "k", IndexKind::kHash).ok());
  EXPECT_EQ(t.FindIndex({1}), nullptr);  // json index must not satisfy this
  EXPECT_NE(t.FindJsonIndex(1, "k", IndexKind::kHash), nullptr);
  EXPECT_EQ(t.FindJsonIndex(1, "other", IndexKind::kHash), nullptr);
}

// --------------------------------------------------------------- Database --

TEST(DatabaseTest, CreateGetDrop) {
  Database db;
  auto t = db.CreateTable("t", TwoColSchema());
  ASSERT_TRUE(t.ok());
  EXPECT_NE(db.GetTable("t"), nullptr);
  EXPECT_EQ(db.GetTable("missing"), nullptr);
  EXPECT_TRUE(db.CreateTable("t", TwoColSchema()).status().code() ==
              util::StatusCode::kAlreadyExists);
  EXPECT_TRUE(db.DropTable("t").ok());
  EXPECT_EQ(db.GetTable("t"), nullptr);
  EXPECT_TRUE(db.DropTable("t").IsNotFound());
}

TEST(DatabaseTest, PagedTableUsesSharedPool) {
  Database db(1 << 20);
  auto t = db.CreateTable("p", TwoColSchema(), StorageMode::kPaged);
  ASSERT_TRUE(t.ok());
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE((*t)->Insert({Value(i), Value("row")}).ok());
  }
  EXPECT_GT((*t)->SerializedBytes(), 0u);
  EXPECT_GT(db.TotalSerializedBytes(), 0u);
}

// ------------------------------------------------------------ LockManager --

TEST(LockManagerTest, ConcurrentExclusiveIncrements) {
  LockManager lm;
  int counter = 0;  // protected by stripe of key 7
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 1000; ++i) {
        LockManager::ExclusiveGuard guard(&lm, 7);
        ++counter;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter, 8000);
}

TEST(LockManagerTest, PairGuardAvoidsDeadlock) {
  LockManager lm;
  std::atomic<int> done{0};
  std::thread a([&] {
    for (int i = 0; i < 2000; ++i) {
      LockManager::PairExclusiveGuard g(&lm, 1, 2);
    }
    done.fetch_add(1);
  });
  std::thread b([&] {
    for (int i = 0; i < 2000; ++i) {
      LockManager::PairExclusiveGuard g(&lm, 2, 1);
    }
    done.fetch_add(1);
  });
  a.join();
  b.join();
  EXPECT_EQ(done.load(), 2);
}

}  // namespace
}  // namespace rel
}  // namespace sqlgraph
