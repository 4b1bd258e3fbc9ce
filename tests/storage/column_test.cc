#include "storage/column.h"

#include <gtest/gtest.h>

namespace fungusdb {
namespace {

TEST(ColumnTest, FactoryProducesMatchingType) {
  for (DataType t : {DataType::kInt64, DataType::kFloat64, DataType::kString,
                     DataType::kBool, DataType::kTimestamp}) {
    std::unique_ptr<Column> col = MakeColumn(t);
    ASSERT_NE(col, nullptr);
    EXPECT_EQ(col->type(), t);
    EXPECT_EQ(col->size(), 0u);
  }
}

TEST(ColumnTest, Int64AppendAndGet) {
  Int64Column col;
  col.Append(Value::Int64(5));
  col.AppendTyped(7);
  ASSERT_EQ(col.size(), 2u);
  EXPECT_EQ(col.GetValue(0).AsInt64(), 5);
  EXPECT_EQ(col.at(1), 7);
  EXPECT_FALSE(col.IsNull(0));
}

TEST(ColumnTest, NullsTracked) {
  Float64Column col;
  col.Append(Value::Null());
  col.Append(Value::Float64(2.5));
  EXPECT_TRUE(col.IsNull(0));
  EXPECT_TRUE(col.GetValue(0).is_null());
  EXPECT_FALSE(col.IsNull(1));
  EXPECT_DOUBLE_EQ(col.GetValue(1).AsFloat64(), 2.5);
}

TEST(ColumnTest, StringColumnStoresPayload) {
  StringColumn col;
  col.Append(Value::String("hello"));
  col.AppendTyped("world");
  EXPECT_EQ(col.GetValue(0).AsString(), "hello");
  EXPECT_EQ(col.at(1), "world");
}

TEST(ColumnTest, StringColumnCodesInFirstAppearanceOrder) {
  StringColumn col;
  for (const char* s : {"b", "a", "b", "c", "a"}) col.AppendTyped(s);
  EXPECT_EQ(col.dictionary(), (std::vector<std::string>{"b", "a", "c"}));
  EXPECT_EQ(col.codes(), (std::vector<uint32_t>{0, 1, 0, 2, 1}));
  EXPECT_EQ(FindDictionaryCode(col.dictionary(), "c"), 2u);
  EXPECT_EQ(FindDictionaryCode(col.dictionary(), "z"), std::nullopt);
}

TEST(ColumnTest, StringColumnNullHoldsTheEmptyStringCode) {
  StringColumn col;
  col.AppendTyped("x");
  col.Append(Value::Null());
  col.AppendTyped("");
  col.Append(Value::Null());
  EXPECT_EQ(col.dictionary(), (std::vector<std::string>{"x", ""}));
  EXPECT_EQ(col.codes(), (std::vector<uint32_t>{0, 1, 1, 1}));
  EXPECT_EQ(col.null_count(), 2u);
  EXPECT_TRUE(col.IsNull(1));
  EXPECT_FALSE(col.IsNull(2));
  EXPECT_TRUE(col.GetValue(1).is_null());
  EXPECT_EQ(col.GetValue(2).AsString(), "");
}

TEST(ColumnTest, StringColumnSealKeepsCodesAndLookups) {
  StringColumn col;
  for (int i = 0; i < 100; ++i) col.AppendTyped(std::to_string(i % 37));
  const size_t open_bytes = col.MemoryUsage();
  col.Seal();
  EXPECT_LT(col.MemoryUsage(), open_bytes);  // the append index is gone
  EXPECT_EQ(col.dictionary().size(), 37u);
  EXPECT_EQ(FindDictionaryCode(col.dictionary(), "36"), 36u);
  EXPECT_EQ(FindDictionaryCode(col.dictionary(), "37"), std::nullopt);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(col.codes()[i], static_cast<uint32_t>(i % 37));
    EXPECT_EQ(col.at(i), std::to_string(i % 37));
  }
}

TEST(ColumnTest, StringColumnFromCodesIsSealedAndExact) {
  const uint8_t valid[] = {1, 0, 1};
  StringColumn col({"p", "", "q"}, {2, 1, 0}, valid);
  ASSERT_EQ(col.size(), 3u);
  EXPECT_EQ(col.null_count(), 1u);
  EXPECT_EQ(col.GetValue(0).AsString(), "q");
  EXPECT_TRUE(col.GetValue(1).is_null());
  EXPECT_EQ(FindDictionaryCode(col.dictionary(), "p"), 0u);
}

TEST(ColumnTest, StringMemoryIsPerDistinctValue) {
  // 10k cells over one long payload: the payload is stored once, the
  // cells cost a code each.
  StringColumn col;
  for (int i = 0; i < 10000; ++i) col.AppendTyped(std::string(4096, 'x'));
  col.Seal();
  EXPECT_GE(col.MemoryUsage(), 4096u + 10000 * sizeof(uint32_t));
  // Vector growth may leave up to twice the capacity it needs.
  EXPECT_LT(col.MemoryUsage(),
            2 * 4096u + 2 * 10000 * (sizeof(uint32_t) + 1));
}

TEST(ColumnTest, BoolColumn) {
  BoolColumn col;
  col.Append(Value::Bool(true));
  col.Append(Value::Bool(false));
  EXPECT_TRUE(col.GetValue(0).AsBool());
  EXPECT_FALSE(col.GetValue(1).AsBool());
}

TEST(ColumnTest, TimestampColumnRoundTrips) {
  TimestampColumn col;
  col.Append(Value::TimestampVal(123456));
  col.AppendTyped(789);
  EXPECT_EQ(col.GetValue(0).AsTimestamp(), 123456);
  EXPECT_EQ(col.GetValue(0).type(), DataType::kTimestamp);
  EXPECT_EQ(col.at(1), 789);
}

TEST(ColumnTest, TimestampColumnNulls) {
  TimestampColumn col;
  col.Append(Value::Null());
  EXPECT_TRUE(col.IsNull(0));
  EXPECT_TRUE(col.GetValue(0).is_null());
}

TEST(ColumnTest, MemoryUsageGrowsWithData) {
  Int64Column col;
  const size_t empty = col.MemoryUsage();
  for (int i = 0; i < 10000; ++i) col.AppendTyped(i);
  EXPECT_GT(col.MemoryUsage(), empty + 10000 * sizeof(int64_t) / 2);
}

TEST(ColumnTest, StringMemoryIncludesPayloads) {
  StringColumn col;
  col.AppendTyped(std::string(4096, 'x'));
  EXPECT_GE(col.MemoryUsage(), 4096u);
}

}  // namespace
}  // namespace fungusdb
