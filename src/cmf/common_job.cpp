#include "cmf/common_job.h"

#include <algorithm>
#include <array>
#include <memory>
#include <optional>

#include "common/error.h"
#include "common/strings.h"
#include "exec/aggregates.h"
#include "exec/batch.h"
#include "exec/expr_eval.h"
#include "exec/hash_agg.h"
#include "exec/operators.h"
#include "exec/vector_kernels.h"

namespace ysmart {

namespace {

// ---------- compiled (bind-once) job state shared by all tasks ----------

struct CompiledConsumer {
  int bit = 0;
  BoundExpr filter;  // over the emission's input file schema; may be unbound
  bool has_filter = false;
};

struct CompiledEmission {
  int input_file = 0;
  int source_tag = 0;
  std::vector<BoundExpr> keys;
  std::vector<BoundExpr> values;
  std::vector<CompiledConsumer> consumers;
};

struct CompiledStage {
  const PlanNode* op = nullptr;
  std::vector<Stage::In> inputs;
  int output_index = -1;

  std::optional<GroupJoinSpec> join;
  std::optional<BoundAgg> agg;
  std::optional<BoundSort> sort;

  // SP
  BoundExpr sp_filter;
  bool sp_has_filter = false;
  std::vector<BoundExpr> sp_projections;
};

struct CompiledJob {
  std::vector<CompiledEmission> emissions;   // grouped by input file below
  std::vector<std::vector<int>> emissions_by_file;
  std::vector<CompiledStage> stages;
  std::array<int, 32> consumer_slot{};       // visibility bit -> dense slot, -1 = none
  int num_consumers = 0;

  // CombineAgg state
  const PlanNode* combine_agg = nullptr;
  std::vector<BoundExpr> combine_group_exprs;
  std::vector<BoundExpr> combine_arg_exprs;    // unbound slot for star
  std::size_t combine_partial_arity = 0;       // Values per map-side partial
  BoundExpr combine_filter;
  bool combine_has_filter = false;
  std::vector<BoundExpr> combine_projections;  // over internal schema
  BoundExpr combine_having;                    // over output schema
  bool combine_has_having = false;

  bool map_only = false;
  // Every emission's key is empty: a global aggregation, or a single
  // reducer fed by one empty key.
  bool empty_key = false;
};

// ------------------------------ mappers ------------------------------

class CommonMapper final : public Mapper {
 public:
  explicit CommonMapper(std::shared_ptr<const CompiledJob> cj) : cj_(std::move(cj)) {}

  void map(const Row& record, int input_tag, MapEmitter& out) override {
    for (int ei : cj_->emissions_by_file[static_cast<std::size_t>(input_tag)]) {
      const CompiledEmission& e = cj_->emissions[static_cast<std::size_t>(ei)];
      std::uint32_t exclude = 0;
      bool any_visible = false;
      for (const auto& c : e.consumers) {
        const bool pass = !c.has_filter || is_true(c.filter.eval(record));
        if (pass)
          any_visible = true;
        else
          exclude |= (1u << c.bit);
      }
      if (!any_visible) continue;
      Row key;
      key.reserve(e.keys.size());
      for (const auto& k : e.keys) key.push_back(k.eval(record));
      Row value;
      value.reserve(e.values.size());
      for (const auto& v : e.values) value.push_back(v.eval(record));
      out.emit(std::move(key), std::move(value),
               static_cast<std::uint8_t>(e.source_tag), exclude);
    }
  }

  bool supports_batches() const override { return true; }

  // Emission-major batch version of map(). The per-record path emits
  // record-major; flipping the nesting is shuffle-invisible because every
  // emission has a unique source tag and the map-side sort orders by
  // (key, source, seq) — within one (key, source) run the records keep
  // their relative order either way.
  void map_batch(ColumnBatch& batch, int input_tag, MapEmitter& out) override {
    const std::size_t n = batch.rows();
    for (int ei : cj_->emissions_by_file[static_cast<std::size_t>(input_tag)]) {
      const CompiledEmission& e = cj_->emissions[static_cast<std::size_t>(ei)];
      if (e.consumers.empty()) continue;  // nothing is ever visible
      // Consumer visibility over the whole batch. The scalar path
      // evaluates every consumer filter for every record (no
      // short-circuit), so evaluating each filter over the full batch
      // counts kRowsEvaluated identically.
      exclude_.assign(n, 0);
      std::uint32_t full_mask = 0;
      for (const auto& c : e.consumers) {
        full_mask |= (1u << c.bit);
        if (!c.has_filter) continue;  // visible to this consumer everywhere
        BatchVector fv;
        if (eval_expr_batch(c.filter, batch, fv)) {
          for (std::size_t k = 0; k < n; ++k)
            if (!fv.truthy(k)) exclude_[k] |= (1u << c.bit);
        } else {
          for (std::size_t k = 0; k < n; ++k)
            if (!is_true(c.filter.eval(batch.source_row(k))))
              exclude_[k] |= (1u << c.bit);
        }
      }
      // A record is emitted iff at least one consumer sees it.
      sel_.clear();
      for (std::size_t k = 0; k < n; ++k)
        if (exclude_[k] != full_mask)
          sel_.push_back(static_cast<std::uint32_t>(k));
      if (sel_.empty()) continue;
      // Key/value expressions run only over the visible records, exactly
      // like the scalar path.
      ColumnBatch selected = batch.select(sel_);
      key_cols_.resize(e.keys.size());
      key_ok_.resize(e.keys.size());
      for (std::size_t j = 0; j < e.keys.size(); ++j)
        key_ok_[j] = eval_expr_batch(e.keys[j], selected, key_cols_[j]);
      val_cols_.resize(e.values.size());
      val_ok_.resize(e.values.size());
      for (std::size_t j = 0; j < e.values.size(); ++j)
        val_ok_[j] = eval_expr_batch(e.values[j], selected, val_cols_[j]);
      for (std::size_t r = 0; r < selected.rows(); ++r) {
        Row key;
        key.reserve(e.keys.size());
        for (std::size_t j = 0; j < e.keys.size(); ++j)
          key.push_back(key_ok_[j] ? key_cols_[j].value_at(r)
                                   : e.keys[j].eval(selected.source_row(r)));
        Row value;
        value.reserve(e.values.size());
        for (std::size_t j = 0; j < e.values.size(); ++j)
          value.push_back(val_ok_[j]
                              ? val_cols_[j].value_at(r)
                              : e.values[j].eval(selected.source_row(r)));
        out.emit(std::move(key), std::move(value),
                 static_cast<std::uint8_t>(e.source_tag), exclude_[sel_[r]]);
      }
    }
  }

 private:
  std::shared_ptr<const CompiledJob> cj_;
  // Per-batch scratch (a mapper instance serves one map task, serially).
  std::vector<std::uint32_t> exclude_;
  std::vector<std::uint32_t> sel_;
  std::vector<BatchVector> key_cols_, val_cols_;
  std::vector<char> key_ok_, val_ok_;
};

/// Map-only SELECTION-PROJECTION job: emits the projected row as the
/// value; the engine writes values straight to the output file.
class SpMapper final : public Mapper {
 public:
  explicit SpMapper(std::shared_ptr<const CompiledJob> cj) : cj_(std::move(cj)) {}

  void map(const Row& record, int /*input_tag*/, MapEmitter& out) override {
    const CompiledStage& st = cj_->stages.at(0);
    if (st.sp_has_filter && !is_true(st.sp_filter.eval(record))) return;
    Row value;
    if (st.sp_projections.empty()) {
      value = record;
    } else {
      value.reserve(st.sp_projections.size());
      for (const auto& p : st.sp_projections) value.push_back(p.eval(record));
    }
    out.emit(Row{}, std::move(value));
  }

  bool supports_batches() const override { return true; }

  // Map-only output is written in emit order, so this stays record-major.
  void map_batch(ColumnBatch& batch, int /*input_tag*/,
                 MapEmitter& out) override {
    const CompiledStage& st = cj_->stages.at(0);
    const std::size_t n = batch.rows();
    sel_.clear();
    if (st.sp_has_filter) {
      BatchVector fv;
      if (eval_expr_batch(st.sp_filter, batch, fv)) {
        collect_passing(fv, n, sel_);
      } else {
        for (std::size_t k = 0; k < n; ++k)
          if (is_true(st.sp_filter.eval(batch.source_row(k))))
            sel_.push_back(static_cast<std::uint32_t>(k));
      }
    } else {
      for (std::size_t k = 0; k < n; ++k)
        sel_.push_back(static_cast<std::uint32_t>(k));
    }
    if (sel_.empty()) return;
    if (st.sp_projections.empty()) {
      for (auto k : sel_) out.emit(Row{}, batch.copy_row(k));
      return;
    }
    ColumnBatch selected = batch.select(sel_);
    cols_.resize(st.sp_projections.size());
    ok_.resize(st.sp_projections.size());
    for (std::size_t j = 0; j < st.sp_projections.size(); ++j)
      ok_[j] = eval_expr_batch(st.sp_projections[j], selected, cols_[j]);
    for (std::size_t r = 0; r < selected.rows(); ++r) {
      Row value;
      value.reserve(st.sp_projections.size());
      for (std::size_t j = 0; j < st.sp_projections.size(); ++j)
        value.push_back(ok_[j]
                            ? cols_[j].value_at(r)
                            : st.sp_projections[j].eval(selected.source_row(r)));
      out.emit(Row{}, std::move(value));
    }
  }

 private:
  std::shared_ptr<const CompiledJob> cj_;
  // Per-batch scratch (a mapper instance serves one map task, serially).
  std::vector<std::uint32_t> sel_;
  std::vector<BatchVector> cols_;
  std::vector<char> ok_;
};

/// Map-side partial aggregation (CombineAgg jobs): the scan filter picks
/// the rows, a HashAggregator (exec/hash_agg.h) groups them by their
/// normalized key bytes, and finish() emits one partial per group.
class CombineAggMapper final : public Mapper {
 public:
  explicit CombineAggMapper(std::shared_ptr<const CompiledJob> cj)
      : cj_(std::move(cj)),
        agg_(cj_->combine_group_exprs, cj_->combine_arg_exprs,
             cj_->combine_agg->aggs) {}

  void map(const Row& record, int /*input_tag*/, MapEmitter& /*out*/) override {
    if (cj_->combine_has_filter && !is_true(cj_->combine_filter.eval(record)))
      return;
    agg_.add_row(record);
  }

  bool supports_batches() const override { return true; }

  // Emission happens in finish(), so the batch only has to reach the
  // aggregator with the rows the filter keeps, in order.
  void map_batch(ColumnBatch& batch, int /*input_tag*/,
                 MapEmitter& /*out*/) override {
    if (!cj_->combine_has_filter) {
      agg_.add_batch(batch);
      return;
    }
    const std::size_t n = batch.rows();
    sel_.clear();
    BatchVector fv;
    if (eval_expr_batch(cj_->combine_filter, batch, fv)) {
      collect_passing(fv, n, sel_);
    } else {
      for (std::size_t k = 0; k < n; ++k)
        if (is_true(cj_->combine_filter.eval(batch.source_row(k))))
          sel_.push_back(static_cast<std::uint32_t>(k));
    }
    if (sel_.size() == n) {
      agg_.add_batch(batch);  // the filter kept every row
    } else if (!sel_.empty()) {
      ColumnBatch selected = batch.select(sel_);
      agg_.add_batch(selected);
    }
  }

  // Emits in normalized-key byte order, which is exactly compare_rows
  // order, so the map output does not depend on hash-table layout.
  void finish(MapEmitter& out) override {
    agg_.for_each_in_key_order(
        [&](std::string_view /*norm_key*/, Row& key,
            std::span<const AggState> states) {
          KeyValue kv;
          kv.key = std::move(key);
          kv.value.reserve(cj_->combine_partial_arity);
          for (const AggState& s : states) s.to_partial(kv.value);
          out.emit(std::move(kv));
        });
  }

 private:
  std::shared_ptr<const CompiledJob> cj_;
  HashAggregator agg_;
  // Per-batch scratch (a mapper instance serves one map task, serially).
  std::vector<std::uint32_t> sel_;
};

// ------------------------------ reducers ------------------------------

/// One instance per reduce-partition task. The compiled job is shared and
/// read-only; the members below are this task's scratch, cleared for each
/// key group and reused, so a group's values are never copied: consumers
/// and later stages see them through row views.
class CommonReducer final : public Reducer {
 public:
  explicit CommonReducer(std::shared_ptr<const CompiledJob> cj)
      : cj_(std::move(cj)),
        consumer_rows_(static_cast<std::size_t>(cj_->num_consumers)),
        stage_rows_(cj_->stages.size()),
        stage_views_(cj_->stages.size()) {}

  void reduce(const Row& /*key*/, std::span<const KeyValue> values,
              ReduceEmitter& out) override {
    saw_group_ = true;
    // One pass over the value list, handing each value to the merged
    // reducers that can see it (paper Algorithm 1).
    for (auto& rows : consumer_rows_) rows.clear();
    for (const auto& kv : values) {
      const CompiledEmission& e =
          cj_->emissions[static_cast<std::size_t>(kv.source)];
      for (const auto& c : e.consumers)
        if (kv.visible_to(c.bit))
          consumer_rows_[static_cast<std::size_t>(
                             cj_->consumer_slot[static_cast<std::size_t>(c.bit)])]
              .push_back(&kv.value);
    }
    // Evaluate merged operations and post-job computations in order.
    for (std::size_t s = 0; s < cj_->stages.size(); ++s) {
      const CompiledStage& st = cj_->stages[s];
      auto input_of = [&](const Stage::In& in) -> RowView {
        const auto i = static_cast<std::size_t>(in.index);
        if (in.from_consumer)
          return consumer_rows_[static_cast<std::size_t>(cj_->consumer_slot[i])];
        return stage_views_[i];
      };
      std::vector<Row>& rows = stage_rows_[s];
      rows.clear();
      switch (st.op->kind) {
        case PlanKind::Join:
          join_group(*st.join, input_of(st.inputs[0]), input_of(st.inputs[1]),
                     rows, joined_);
          break;
        case PlanKind::Agg:
          aggregate_rows(*st.agg, input_of(st.inputs[0]), rows);
          break;
        case PlanKind::SP:
          filter_project(input_of(st.inputs[0]), &st.sp_filter,
                         st.sp_projections, rows);
          break;
        case PlanKind::Sort:
          sort_rows(*st.sort, input_of(st.inputs[0]), rows);
          break;
        case PlanKind::Scan:
          throw InternalError("scan cannot be a reduce stage");
      }
      if (st.output_index >= 0) {
        for (auto& r : rows) out.emit_to(st.output_index, std::move(r));
      } else {
        // Only a stage without a job output feeds a later one (checked at
        // build time), so these rows are never moved out.
        std::vector<const Row*>& view = stage_views_[s];
        view.clear();
        for (const Row& r : rows) view.push_back(&r);
      }
    }
  }

  // With an empty key and no input anywhere, no group ever reached a
  // reducer. Running the stages once over the empty group gives what
  // SQL asks of each: one row from a global aggregation, none from the
  // rest.
  void finish(bool empty_key_partition, ReduceEmitter& out) override {
    if (cj_->empty_key && empty_key_partition && !saw_group_)
      reduce(Row{}, {}, out);
  }

 private:
  std::shared_ptr<const CompiledJob> cj_;
  bool saw_group_ = false;
  std::vector<std::vector<const Row*>> consumer_rows_;  // by consumer slot
  std::vector<std::vector<Row>> stage_rows_;            // by stage
  std::vector<std::vector<const Row*>> stage_views_;    // by stage
  Row joined_;                                          // join concatenation
};

/// One instance per reduce-partition task; the aggregate states and the
/// internal row are re-initialised for each key group, not reallocated.
class CombineAggReducer final : public Reducer {
 public:
  explicit CombineAggReducer(std::shared_ptr<const CompiledJob> cj)
      : cj_(std::move(cj)) {
    for (const auto& a : cj_->combine_agg->aggs) states_.emplace_back(a);
  }

  void reduce(const Row& key, std::span<const KeyValue> values,
              ReduceEmitter& out) override {
    saw_group_ = true;
    for (auto& s : states_) s.reset();
    for (const auto& kv : values) {
      std::size_t pos = 0;
      for (auto& s : states_) {
        const std::size_t n = static_cast<std::size_t>(s.partial_arity());
        s.add_partial(std::span<const Value>(kv.value.data() + pos, n));
        pos += n;
      }
    }
    emit_group(key, out);
  }

  // A global aggregation over no rows still yields one row.
  void finish(bool empty_key_partition, ReduceEmitter& out) override {
    if (!cj_->combine_group_exprs.empty() || !empty_key_partition || saw_group_)
      return;
    for (auto& s : states_) s.reset();
    emit_group(Row{}, out);
  }

 private:
  void emit_group(const Row& key, ReduceEmitter& out) {
    internal_.assign(key.begin(), key.end());
    for (const auto& s : states_) internal_.push_back(s.result());
    Row o;
    o.reserve(cj_->combine_projections.size());
    for (const auto& p : cj_->combine_projections) o.push_back(p.eval(internal_));
    if (cj_->combine_has_having && !is_true(cj_->combine_having.eval(o)))
      return;
    out.emit_to(0, std::move(o));
  }

  std::shared_ptr<const CompiledJob> cj_;
  bool saw_group_ = false;
  std::vector<AggState> states_;
  Row internal_;  // group key ‖ aggregate results
};

}  // namespace

MRJobSpec build_common_job(const TranslatedJob& job,
                           const TranslatorProfile& profile, const Dfs& dfs) {
  auto cj = std::make_shared<CompiledJob>();
  MRJobSpec spec;
  spec.name = job.name;
  spec.outputs = job.outputs;
  spec.num_reduce_tasks = job.num_reduce_tasks;
  spec.map_cpu_multiplier = profile.map_cpu_multiplier;
  spec.reduce_cpu_multiplier = profile.reduce_cpu_multiplier;
  spec.intermediate_expansion = profile.intermediate_expansion;
  {
    // "Hive cannot efficiently execute join with temporarily-generated
    // inputs" (Section VII-F): joins fed only by intermediates pay the
    // profile's penalty in the reduce phase.
    const bool has_join = std::any_of(
        job.stages.begin(), job.stages.end(),
        [](const Stage& s) { return s.op->kind == PlanKind::Join; });
    const bool all_temp_inputs =
        !job.input_files.empty() &&
        std::none_of(job.input_files.begin(), job.input_files.end(),
                     [](const InputFile& f) {
                       return starts_with(f.path, "/tables/");
                     });
    if (has_join && all_temp_inputs)
      spec.reduce_cpu_multiplier *= profile.temp_input_join_penalty;
  }
  spec.tag_encoding = profile.tag_encoding;
  spec.num_merged_jobs = std::max(1, job.total_consumers());

  // Inputs and their runtime schemas.
  std::vector<Schema> file_schemas;
  for (std::size_t i = 0; i < job.input_files.size(); ++i) {
    spec.inputs.push_back(JobInput{job.input_files[i].path, static_cast<int>(i)});
    file_schemas.push_back(dfs.file(job.input_files[i].path).table->schema());
  }

  // ---- CombineAgg fast path ----
  if (job.kind == TranslatedJob::Kind::CombineAgg) {
    const PlanNode* agg = job.combine_agg_node;
    check(agg != nullptr, "CombineAgg job without agg node");
    cj->combine_agg = agg;
    const Schema& fs = file_schemas.at(0);
    const PlanNode* child = agg->children[0].get();
    if (child->kind == PlanKind::Scan && child->filter) {
      cj->combine_filter = BoundExpr(child->filter, fs);
      cj->combine_has_filter = true;
    }
    for (const auto& g : agg->group_cols) {
      cj->combine_group_exprs.emplace_back(Expr::make_column(g), fs);
      spec.key_column_names.push_back(g);
    }
    for (const auto& a : agg->aggs) {
      if (a.star)
        cj->combine_arg_exprs.emplace_back();
      else
        cj->combine_arg_exprs.emplace_back(a.arg, fs);
      cj->combine_partial_arity +=
          static_cast<std::size_t>(AggState(a).partial_arity());
    }
    cj->combine_projections = bind_all(agg->projections, agg->agg_internal_schema());
    if (agg->filter) {
      cj->combine_having = BoundExpr(agg->filter, agg->output_schema);
      cj->combine_has_having = true;
    }
    spec.make_mapper = [cj] { return std::make_unique<CombineAggMapper>(cj); };
    spec.make_reducer = [cj] { return std::make_unique<CombineAggReducer>(cj); };
    return spec;
  }

  // Reduce key names for observability: every emission shares one
  // partition-key shape, so the first emission's key expressions name it.
  if (!job.emissions.empty())
    for (const auto& k : job.emissions.front().key_exprs)
      spec.key_column_names.push_back(k->to_string());

  // ---- compile emissions ----
  cj->empty_key = !job.emissions.empty() &&
                  std::all_of(job.emissions.begin(), job.emissions.end(),
                              [](const Emission& e) { return e.key_exprs.empty(); });
  cj->emissions_by_file.resize(job.input_files.size());
  cj->consumer_slot.fill(-1);
  for (const auto& e : job.emissions) {
    CompiledEmission ce;
    ce.input_file = e.input_file;
    ce.source_tag = e.source_tag;
    const Schema& fs = file_schemas.at(static_cast<std::size_t>(e.input_file));
    for (const auto& k : e.key_exprs) ce.keys.emplace_back(k, fs);
    for (const auto& v : e.value_exprs) ce.values.emplace_back(v, fs);
    for (const auto& c : e.consumers) {
      CompiledConsumer cc;
      // The visibility tag is a 32-bit exclude mask (KeyValue::exclude);
      // a consumer id outside [0, 32) would shift out of range at map
      // time, so reject it once here at job-compile time.
      check(c.consumer_id >= 0 && c.consumer_id < 32,
            "consumer id does not fit the 32-bit visibility mask");
      cc.bit = c.consumer_id;
      if (c.filter) {
        cc.filter = BoundExpr(c.filter, fs);
        cc.has_filter = true;
      }
      cj->consumer_slot[static_cast<std::size_t>(c.consumer_id)] =
          cj->num_consumers++;
      ce.consumers.push_back(std::move(cc));
    }
    cj->emissions_by_file[static_cast<std::size_t>(e.input_file)].push_back(
        static_cast<int>(cj->emissions.size()));
    // Note: the reducer indexes emissions by source_tag; lowering assigns
    // source tags equal to the emission's position in job.emissions.
    check(ce.source_tag == static_cast<int>(cj->emissions.size()),
          "emission source tags must be dense and ordered");
    cj->emissions.push_back(std::move(ce));
  }

  // ---- compile stages ----
  for (const auto& st : job.stages) {
    CompiledStage cs;
    cs.op = st.op;
    cs.inputs = st.inputs;
    cs.output_index = st.output_index;
    switch (st.op->kind) {
      case PlanKind::Join:
        cs.join.emplace(*st.op);
        break;
      case PlanKind::Agg:
        cs.agg.emplace(*st.op);
        break;
      case PlanKind::Sort:
        cs.sort.emplace(*st.op);
        break;
      case PlanKind::SP: {
        const Schema& child = st.op->children[0]->output_schema;
        if (st.op->filter) {
          cs.sp_filter = BoundExpr(st.op->filter, child);
          cs.sp_has_filter = true;
        }
        cs.sp_projections = bind_all(st.op->projections, child);
        break;
      }
      case PlanKind::Scan: {
        // Scan stages occur only in map-only scan jobs: selection and
        // projection bind against the base file's schema directly.
        check(job.kind == TranslatedJob::Kind::MapOnly,
              "scan stage outside a map-only job");
        const Schema& fs = file_schemas.at(0);
        if (st.op->filter) {
          cs.sp_filter = BoundExpr(st.op->filter, fs);
          cs.sp_has_filter = true;
        }
        cs.sp_projections = bind_all(st.op->projections, fs);
        break;
      }
    }
    cj->stages.push_back(std::move(cs));
  }

  if (job.kind == TranslatedJob::Kind::MapOnly) {
    check(cj->stages.size() == 1 && (cj->stages[0].op->kind == PlanKind::SP ||
                                     cj->stages[0].op->kind == PlanKind::Scan),
          "map-only jobs must be a single SP or scan stage");
    spec.make_mapper = [cj] { return std::make_unique<SpMapper>(cj); };
    spec.make_reducer = nullptr;
    return spec;
  }

  // The reducer indexes its per-group scratch by the stage inputs and
  // moves an output stage's rows out, so only a stage without a job output
  // may feed a later one.
  for (std::size_t s = 0; s < cj->stages.size(); ++s)
    for (const auto& in : cj->stages[s].inputs) {
      if (in.from_consumer)
        check(in.index >= 0 && in.index < 32 &&
                  cj->consumer_slot[static_cast<std::size_t>(in.index)] >= 0,
              "stage input names an unknown consumer");
      else
        check(in.index >= 0 && static_cast<std::size_t>(in.index) < s &&
                  cj->stages[static_cast<std::size_t>(in.index)].output_index < 0,
              "stage input must be an earlier stage without a job output");
    }

  spec.make_mapper = [cj] { return std::make_unique<CommonMapper>(cj); };
  spec.make_reducer = [cj] { return std::make_unique<CommonReducer>(cj); };
  return spec;
}

}  // namespace ysmart
