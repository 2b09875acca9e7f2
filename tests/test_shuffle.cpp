// Pins the serialized shuffle (mr/shuffle.h) to its executable
// specification: each reduce partition must see exactly what
// std::stable_sort(kv_less) over that partition's pairs, concatenated in
// map-task order, produces; the group key is the key of the group's
// first pair, as emitted; and every key and value a reducer sees equals,
// bit for bit, what its mapper emitted.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <limits>
#include <mutex>
#include <string>
#include <vector>

#include "cmf/common_job.h"
#include "common/env.h"
#include "common/rng.h"
#include "mr/engine.h"
#include "mr/shuffle.h"
#include "plan/builder.h"
#include "sql/parser.h"
#include "storage/catalog.h"

namespace ysmart {
namespace {

/// One value as a reducer saw it, with the key of its group.
struct Seen {
  Row key;
  KeyValue kv;
};

/// What the shuffle did with some map tasks' output.
struct Shuffled {
  std::vector<std::vector<KeyValue>> sent;  // per partition, task order
  std::vector<std::vector<Seen>> reduced;   // per partition, reduce order
  std::vector<std::size_t> groups;          // key groups per partition
};

/// Serialize each task's pairs (in emit order) into its own
/// MapOutputBuffer, then sort and group every partition as the engine
/// does.
Shuffled shuffle(const std::vector<std::vector<KeyValue>>& tasks,
                 std::size_t num_partitions) {
  Shuffled s;
  s.sent.resize(num_partitions);
  s.reduced.resize(num_partitions);
  s.groups.resize(num_partitions);
  std::vector<std::vector<MapOutput>> outputs;
  for (const auto& task : tasks) {
    MapOutputBuffer buf(num_partitions);
    for (const KeyValue& kv : task) s.sent[buf.add(kv)].push_back(kv);
    outputs.push_back(buf.take());
  }
  for (std::size_t p = 0; p < num_partitions; ++p) {
    std::vector<const MapOutput*> runs;
    for (const auto& o : outputs) runs.push_back(&o[p]);
    const std::vector<ShuffleRef> sorted = sort_partition(runs);
    for_each_key_group(runs, sorted,
                       [&](const Row& key, std::span<const KeyValue> values) {
                         ++s.groups[p];
                         EXPECT_FALSE(values.empty());
                         for (const KeyValue& kv : values) {
                           EXPECT_TRUE(kv.key.empty());
                           s.reduced[p].push_back(Seen{key, kv});
                         }
                       });
  }
  return s;
}

/// The reference: stable sort by (key, source).
std::vector<KeyValue> reference_sort(std::vector<KeyValue> pairs) {
  std::stable_sort(pairs.begin(), pairs.end(), kv_less);
  return pairs;
}

std::size_t distinct_keys(const std::vector<KeyValue>& sorted) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < sorted.size(); ++i)
    if (i == 0 || compare_rows(sorted[i - 1].key, sorted[i].key) != 0) ++n;
  return n;
}

/// Every partition's reduce input is the reference order of what was
/// sent to it, grouped by equal keys.
void expect_reference_order(const Shuffled& s) {
  for (std::size_t p = 0; p < s.sent.size(); ++p) {
    SCOPED_TRACE("partition " + std::to_string(p));
    const auto want = reference_sort(s.sent[p]);
    const auto& got = s.reduced[p];
    ASSERT_EQ(got.size(), want.size());
    EXPECT_EQ(s.groups[p], distinct_keys(want));
    for (std::size_t i = 0; i < got.size(); ++i) {
      // `value` carries the pair's identity in these tests, so equal
      // values mean the same pair, not just an equal key.
      ASSERT_TRUE(compare_rows(got[i].key, want[i].key) == 0) << "index " << i;
      ASSERT_TRUE(compare_rows(got[i].kv.value, want[i].value) == 0)
          << "index " << i;
      ASSERT_EQ(got[i].kv.source, want[i].source) << "index " << i;
      ASSERT_EQ(got[i].kv.exclude, want[i].exclude) << "index " << i;
    }
  }
}

std::vector<KeyValue> random_pairs(Rng& rng, int n, int distinct_keys,
                                   std::int64_t& next_id) {
  std::vector<KeyValue> pairs;
  for (int i = 0; i < n; ++i) {
    KeyValue kv;
    // Few distinct keys and sources force plenty of ties, the case where
    // the (task, emit seq) tie-break decides the order. Int and Double
    // spellings of one number are the same key.
    const std::int64_t k = rng.uniform(0, distinct_keys - 1);
    kv.key = {rng.uniform(0, 1) ? Value{k} : Value{static_cast<double>(k)},
              Value{rng.ident(static_cast<std::size_t>(rng.uniform(0, 2)))}};
    kv.value = {Value{next_id++}};
    kv.source = static_cast<std::uint8_t>(rng.uniform(0, 2));
    kv.exclude = static_cast<std::uint32_t>(rng.uniform(0, 3));
    pairs.push_back(std::move(kv));
  }
  return pairs;
}

TEST(Shuffle, PartitionInputMatchesStableSortOfConcatenation) {
  Rng rng(42424242);
  std::int64_t id = 0;
  for (int round = 0; round < 40; ++round) {
    std::vector<std::vector<KeyValue>> tasks;
    const auto num_tasks = rng.uniform(1, 8);
    for (std::int64_t t = 0; t < num_tasks; ++t)
      tasks.push_back(random_pairs(rng, static_cast<int>(rng.uniform(0, 120)),
                                   static_cast<int>(rng.uniform(1, 8)), id));
    const auto parts = static_cast<std::size_t>(rng.uniform(1, 5));
    expect_reference_order(shuffle(tasks, parts));
  }
}

// The group key is the key of the group's first pair in reduce order,
// with its type: Int 5 and Double 5.0 are one key, and whichever of them
// sorts first by (source, task, emit seq) is what the reducer gets.
TEST(Shuffle, GroupKeyIsTheFirstPairsKeyWithItsType) {
  auto pair = [](Value k, std::uint8_t source, std::int64_t id) {
    KeyValue kv;
    kv.key = {std::move(k)};
    kv.value = {Value{id}};
    kv.source = source;
    return kv;
  };
  struct Case {
    std::vector<std::vector<KeyValue>> tasks;
    ValueType want;
  };
  const Case cases[] = {
      {{{pair(Value{5.0}, 0, 0), pair(Value{5}, 0, 1)}, {pair(Value{5}, 0, 2)}},
       ValueType::Double},
      {{{pair(Value{5}, 0, 0), pair(Value{5.0}, 0, 1)}}, ValueType::Int},
      {{{pair(Value{5}, 0, 0)}, {pair(Value{5.0}, 0, 1)}}, ValueType::Int},
      {{{pair(Value{5}, 1, 0), pair(Value{5.0}, 0, 1)}}, ValueType::Double},
      {{{pair(Value{5.0}, 1, 0)}, {pair(Value{5}, 0, 1)}}, ValueType::Int},
  };
  for (const Case& c : cases) {
    const Shuffled s = shuffle(c.tasks, 1);
    ASSERT_EQ(s.groups[0], 1u);
    ASSERT_FALSE(s.reduced[0].empty());
    EXPECT_EQ(s.reduced[0][0].key.at(0).type(), c.want);
    expect_reference_order(s);
  }
}

// The pin on a real merged CMF job: its mapper's output (two
// aggregations sharing one scan, so pairs carry exclude tags and
// duplicate keys), split over two map tasks, reaches each partition in
// the reference order.
TEST(Shuffle, SortPinOnMergedCmfJobMapOutput) {
  Schema schema;
  schema.add("k", ValueType::Int);
  schema.add("v", ValueType::Int);
  Dfs dfs(2, 256, 1);
  Catalog catalog;
  catalog.register_table("t", schema);
  auto t = std::make_shared<Table>(schema);
  for (int i = 0; i < 60; ++i) t->append({Value{i % 4}, Value{i}});
  dfs.write("/tables/t", t);

  auto agg_lo = plan_query(
      "SELECT k, count(*) AS n FROM t WHERE v < 30 GROUP BY k", catalog);
  auto agg_hi = plan_query(
      "SELECT k, sum(v) AS s FROM t WHERE v >= 15 GROUP BY k", catalog);

  TranslatedJob job;
  job.name = "merged";
  job.kind = TranslatedJob::Kind::MapReduce;
  job.input_files.push_back(InputFile{"/tables/t", Schema{}});
  Emission e;
  e.input_file = 0;
  e.source_tag = 0;
  e.key_exprs = {Expr::make_column("k")};
  e.value_exprs = {Expr::make_column("k"), Expr::make_column("v")};
  e.consumers.push_back(Emission::Consumer{0, parse_expression("v < 30")});
  e.consumers.push_back(Emission::Consumer{1, parse_expression("v >= 15")});
  job.emissions.push_back(e);
  Stage s0;
  s0.op = agg_lo.get();
  s0.inputs = {Stage::In{true, 0}};
  s0.output_index = 0;
  Stage s1;
  s1.op = agg_hi.get();
  s1.inputs = {Stage::In{true, 1}};
  s1.output_index = 1;
  job.stages = {s0, s1};
  job.outputs = {JobOutput{"/out/lo", agg_lo->output_schema},
                 JobOutput{"/out/hi", agg_hi->output_schema}};
  auto spec = build_common_job(job, TranslatorProfile::ysmart(), dfs);

  // Run the job's real mapper over each half of the table.
  class Collector : public MapEmitter {
   public:
    void emit(KeyValue kv) override { out.push_back(std::move(kv)); }
    std::vector<KeyValue> out;
  };
  std::vector<std::vector<KeyValue>> tasks;
  for (std::size_t half = 0; half < 2; ++half) {
    Collector collector;
    auto mapper = spec.make_mapper();
    for (std::size_t i = half * 30; i < half * 30 + 30; ++i)
      mapper->map(t->rows()[i], 0, collector);
    mapper->finish(collector);
    ASSERT_FALSE(collector.out.empty());
    tasks.push_back(std::move(collector.out));
  }
  EXPECT_TRUE(std::any_of(tasks[0].begin(), tasks[0].end(),
                          [](const KeyValue& kv) { return kv.exclude != 0; }));
  for (const std::size_t parts : {1u, 3u}) expect_reference_order(shuffle(tasks, parts));
}

// ---- round trip: what a reducer sees is what its mapper emitted ----

bool same_bits(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  switch (a.type()) {
    case ValueType::Null: return true;
    case ValueType::Int: return a.as_int() == b.as_int();
    case ValueType::Double:
      return std::bit_cast<std::uint64_t>(a.as_double()) ==
             std::bit_cast<std::uint64_t>(b.as_double());
    case ValueType::String: return a.as_string() == b.as_string();
  }
  return false;
}

bool same_bits(const Row& a, const Row& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!same_bits(a[i], b[i])) return false;
  return true;
}

std::vector<Value> edge_cells() {
  constexpr std::int64_t k53 = std::int64_t{1} << 53;
  return {
      Value::null(),
      Value{std::bit_cast<double>(std::uint64_t{0x7ff800000badf00d})},  // NaN
      Value{std::bit_cast<double>(std::uint64_t{0xfff8000000001234})},  // -NaN
      Value{-0.0},
      Value{0.0},
      Value{std::numeric_limits<double>::infinity()},
      Value{-std::numeric_limits<double>::infinity()},
      Value{std::numeric_limits<double>::denorm_min()},
      Value{static_cast<double>(k53)},
      Value{std::numeric_limits<std::int64_t>::min()},
      Value{std::numeric_limits<std::int64_t>::max()},
      Value{k53 - 1},
      Value{k53},
      Value{k53 + 1},
      Value{std::int64_t{0}},
      Value{std::string("a\0b", 3)},
      Value{std::string("\0", 1)},
      Value{std::string("\xff\xfe\x00\xff", 4)},
      Value{std::string()},
      Value{std::string(40, 'x')},
  };
}

/// The pairs the round-trip mapper emits: every edge cell in a key (after
/// a unique id, so each pair is its own group) and in a value, all of
/// them in one value, an empty value Row and an empty key.
std::vector<KeyValue> edge_pairs() {
  const std::vector<Value> cells = edge_cells();
  std::vector<KeyValue> pairs;
  auto add = [&](Row key, Row value) {
    KeyValue kv;
    kv.key = std::move(key);
    kv.value = std::move(value);
    kv.source = static_cast<std::uint8_t>(pairs.size() % 3);
    kv.exclude = static_cast<std::uint32_t>(pairs.size() % 5);
    pairs.push_back(std::move(kv));
  };
  for (const Value& c : cells) {
    const Value id{static_cast<std::int64_t>(pairs.size())};
    add({id, c}, {c, id});
  }
  add({Value{static_cast<std::int64_t>(pairs.size())}}, Row(cells));
  add({Value{static_cast<std::int64_t>(pairs.size())}}, Row{});
  add(Row{}, Row(cells));
  return pairs;
}

TEST(ShuffleRoundTrip, ReducerSeesEveryKeyAndValueBitForBit) {
  const std::vector<KeyValue> pairs = edge_pairs();
  // Record i emits pair i; small blocks give many map tasks.
  Schema in;
  in.add("i", ValueType::Int);
  auto t = std::make_shared<Table>(in);
  for (std::size_t i = 0; i < pairs.size(); ++i)
    t->append({Value{static_cast<std::int64_t>(i)}});
  Dfs dfs(2, 64, 1);
  dfs.write("/in", t);
  Engine engine(dfs, ClusterConfig::small_local(1.0));

  struct PairMapper final : Mapper {
    explicit PairMapper(const std::vector<KeyValue>& p) : pairs(p) {}
    void map(const Row& r, int, MapEmitter& out) override {
      out.emit(pairs[static_cast<std::size_t>(r[0].as_int())]);
    }
    const std::vector<KeyValue>& pairs;
  };
  struct Groups {
    std::mutex mu;
    std::vector<std::pair<Row, std::vector<KeyValue>>> seen;
  } groups;
  struct RecordingReducer final : Reducer {
    explicit RecordingReducer(Groups& g) : groups(g) {}
    void reduce(const Row& key, std::span<const KeyValue> values,
                ReduceEmitter&) override {
      std::lock_guard<std::mutex> lk(groups.mu);
      groups.seen.emplace_back(key,
                               std::vector<KeyValue>(values.begin(), values.end()));
    }
    Groups& groups;
  };
  MRJobSpec spec;
  spec.name = "round-trip";
  spec.inputs = {{"/in", 0}};
  spec.outputs = {{"/out", in}};
  spec.make_mapper = [&] { return std::make_unique<PairMapper>(pairs); };
  spec.make_reducer = [&] { return std::make_unique<RecordingReducer>(groups); };
  const JobMetrics m = engine.run(spec);
  ASSERT_FALSE(m.failed);
  ASSERT_GT(m.map.tasks, 1u);
  ASSERT_GT(m.reduce.tasks, 1u);

  ASSERT_EQ(groups.seen.size(), pairs.size());
  std::vector<bool> matched(pairs.size());
  for (const auto& [key, values] : groups.seen) {
    ASSERT_EQ(values.size(), 1u) << row_to_string(key);
    const KeyValue& got = values[0];
    // The key's first cell is the pair's index; the empty key is last.
    const std::size_t i =
        key.empty() ? pairs.size() - 1 : static_cast<std::size_t>(key[0].as_int());
    ASSERT_LT(i, pairs.size());
    EXPECT_FALSE(matched[i]);
    matched[i] = true;
    EXPECT_TRUE(same_bits(key, pairs[i].key)) << "pair " << i;
    EXPECT_TRUE(same_bits(got.value, pairs[i].value)) << "pair " << i;
    EXPECT_TRUE(got.key.empty());
    EXPECT_EQ(got.source, pairs[i].source);
    EXPECT_EQ(got.exclude, pairs[i].exclude);
  }
}

TEST(Shuffle, EnvFlagParsing) {
  EXPECT_EQ(parse_flag("on"), true);
  EXPECT_EQ(parse_flag("ON"), true);
  EXPECT_EQ(parse_flag("1"), true);
  EXPECT_EQ(parse_flag("true"), true);
  EXPECT_EQ(parse_flag("Yes"), true);
  EXPECT_EQ(parse_flag("off"), false);
  EXPECT_EQ(parse_flag("0"), false);
  EXPECT_EQ(parse_flag("False"), false);
  EXPECT_EQ(parse_flag("no"), false);
  EXPECT_EQ(parse_flag(""), std::nullopt);
  EXPECT_EQ(parse_flag("maybe"), std::nullopt);
  EXPECT_EQ(parse_flag("onn"), std::nullopt);

  ::setenv("YSMART_TEST_FLAG", "off", 1);
  EXPECT_EQ(env_flag("YSMART_TEST_FLAG"), false);
  ::setenv("YSMART_TEST_FLAG", "garbage", 1);
  EXPECT_EQ(env_flag("YSMART_TEST_FLAG"), std::nullopt);
  ::unsetenv("YSMART_TEST_FLAG");
  EXPECT_EQ(env_flag("YSMART_TEST_FLAG"), std::nullopt);
}

}  // namespace
}  // namespace ysmart
