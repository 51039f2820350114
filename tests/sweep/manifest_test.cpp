#include "sweep/manifest.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "sweep/spec.hpp"
#include "sweep/store.hpp"

namespace archgraph::sweep {
namespace {

SweepCell sample_cell() {
  SweepCell cell;
  cell.kernel = "lr_walk";
  cell.machine = "mta:procs=2";
  cell.layout = Layout::kRandom;
  cell.n = 4096;
  cell.m = 0;
  cell.seed = 0;
  cell.trial = 0;
  return cell;
}

TEST(CellHash, StableAcrossInvocations) {
  const SweepCell cell = sample_cell();
  EXPECT_EQ(cell_content_hash(cell), cell_content_hash(cell));
  EXPECT_EQ(cell_content_hash_hex(cell), cell_content_hash_hex(cell));
}

TEST(CellHash, HexFormIs16LowercaseHexDigits) {
  const std::string hex = cell_content_hash_hex(sample_cell());
  ASSERT_EQ(hex.size(), 16u);
  for (const char c : hex) {
    EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))
        << "unexpected hash character '" << c << "'";
  }
}

TEST(CellHash, EveryAxisChangesTheHash) {
  const SweepCell base = sample_cell();
  const u64 h = cell_content_hash(base);

  SweepCell c = base;
  c.kernel = "cc_sv_mta";
  EXPECT_NE(cell_content_hash(c), h);
  c = base;
  c.machine = "mta:procs=4";
  EXPECT_NE(cell_content_hash(c), h);
  c = base;
  c.layout = Layout::kOrdered;
  EXPECT_NE(cell_content_hash(c), h);
  c = base;
  c.n = 4097;
  EXPECT_NE(cell_content_hash(c), h);
  c = base;
  c.m = 1;
  EXPECT_NE(cell_content_hash(c), h);
  c = base;
  c.seed = 1;
  EXPECT_NE(cell_content_hash(c), h);
  c = base;
  c.trial = 1;
  EXPECT_NE(cell_content_hash(c), h);
}

TEST(CellHash, AdjacentFieldsCannotAlias) {
  // Without per-field separators ("ab"+"c") and ("a"+"bc") would collide.
  SweepCell a = sample_cell();
  a.kernel = "ab";
  a.machine = "c";
  SweepCell b = sample_cell();
  b.kernel = "a";
  b.machine = "bc";
  EXPECT_NE(cell_content_hash(a), cell_content_hash(b));
}

TEST(Manifest, MakeCoversEveryPlanCell) {
  const std::vector<std::string> specs = {
      "kernel=lr_walk machine=mta:procs={1,2} n=256"};
  const SweepPlan plan = expand_all(specs);
  const RunManifest m = make_manifest(specs, plan);
  ASSERT_EQ(m.cells.size(), plan.cells.size());
  EXPECT_EQ(m.result_schema_version, kResultSchemaVersion);
  EXPECT_EQ(m.schema_version, kManifestSchemaVersion);
  EXPECT_FALSE(m.code_version.empty());
  for (usize i = 0; i < plan.cells.size(); ++i) {
    EXPECT_EQ(m.cells[i].run_id, plan.cells[i].run_id());
    EXPECT_EQ(m.cells[i].hash, cell_content_hash_hex(plan.cells[i]));
  }
}

TEST(Manifest, JsonRoundTrips) {
  const std::vector<std::string> specs = {
      "kernel=lr_walk machine=mta:procs={1,2} layout={ordered,random} n=256"};
  const RunManifest m = make_manifest(specs, expand_all(specs));
  const std::string json = manifest_json(m);

  std::string error;
  EXPECT_TRUE(obs::json_is_valid(json, &error)) << error;

  const RunManifest back = parse_manifest(json, "<test>");
  EXPECT_EQ(back.schema_version, m.schema_version);
  EXPECT_EQ(back.result_schema_version, m.result_schema_version);
  EXPECT_EQ(back.code_version, m.code_version);
  EXPECT_EQ(back.specs, m.specs);
  ASSERT_EQ(back.cells.size(), m.cells.size());
  for (usize i = 0; i < m.cells.size(); ++i) {
    EXPECT_EQ(back.cells[i].run_id, m.cells[i].run_id);
    EXPECT_EQ(back.cells[i].hash, m.cells[i].hash);
    EXPECT_EQ(back.cells[i].cell.run_id(), m.cells[i].cell.run_id());
  }
  // Round-tripped cells still verify: the hashes recompute from the axes.
  EXPECT_EQ(cell_content_hash_hex(back.cells[0].cell), back.cells[0].hash);
}

TEST(Manifest, ParseRejectsBadDocuments) {
  EXPECT_THROW(parse_manifest("not json", "<test>"), std::logic_error);
  EXPECT_THROW(parse_manifest("[]", "<test>"), std::logic_error);
  EXPECT_THROW(parse_manifest("{}", "<test>"), std::logic_error);
  // Wrong schema version.
  EXPECT_THROW(
      parse_manifest(R"({"manifest_schema_version":999,)"
                     R"("result_schema_version":2,"code_version":"x",)"
                     R"("specs":[],"cell_count":0,"cells":[]})",
                     "<test>"),
      std::logic_error);
  // cell_count disagreeing with the cells listed.
  EXPECT_THROW(
      parse_manifest(R"({"manifest_schema_version":1,)"
                     R"("result_schema_version":2,"code_version":"x",)"
                     R"("specs":[],"cell_count":3,"cells":[]})",
                     "<test>"),
      std::logic_error);
}

TEST(Manifest, DefaultPathAppendsSuffix) {
  EXPECT_EQ(default_manifest_path("results/grid.jsonl"),
            "results/grid.jsonl.manifest.json");
}

TEST(Manifest, WriteReplacesAnExistingFileAndLeavesNoTempFile) {
  const std::string path = testing::TempDir() + "manifest_overwrite.json";
  const std::vector<std::string> old_specs = {
      "kernel=lr_walk machine=mta n=128"};
  const std::vector<std::string> new_specs = {
      "kernel=lr_walk machine=mta:procs={1,2} layout={ordered,random} "
      "n=256"};
  const RunManifest old_manifest =
      make_manifest(old_specs, expand_all(old_specs));
  const RunManifest new_manifest =
      make_manifest(new_specs, expand_all(new_specs));
  ASSERT_TRUE(write_manifest_file(path, old_manifest));
  ASSERT_TRUE(write_manifest_file(path, new_manifest));

  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  EXPECT_EQ(text.str(), manifest_json(new_manifest) + "\n");
  EXPECT_EQ(load_manifest_file(path).cells.size(), 4u);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::filesystem::remove(path);
}

std::vector<ResultRecord> records_for(const SweepPlan& plan) {
  std::vector<ResultRecord> records;
  for (const SweepCell& cell : plan.cells) {
    ResultRecord r;
    r.run_id = cell.run_id();
    records.push_back(r);
  }
  return records;
}

TEST(VerifyManifest, CleanManifestHasNoProblems) {
  const std::vector<std::string> specs = {
      "kernel=lr_walk machine=mta:procs={1,2} n=256"};
  const SweepPlan plan = expand_all(specs);
  const RunManifest m = make_manifest(specs, plan);
  EXPECT_TRUE(verify_manifest(m, records_for(plan)).empty());
}

TEST(VerifyManifest, CorruptedHashIsDetected) {
  const std::vector<std::string> specs = {
      "kernel=lr_walk machine=mta:procs=1 n=256"};
  const SweepPlan plan = expand_all(specs);
  RunManifest m = make_manifest(specs, plan);
  m.cells[0].hash[0] = m.cells[0].hash[0] == '0' ? '1' : '0';
  const std::vector<std::string> problems =
      verify_manifest(m, records_for(plan));
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems[0].find("recomputed"), std::string::npos);
}

TEST(VerifyManifest, TamperedAxisIsDetected) {
  // Changing an axis without refreshing the hash must fail: the recorded
  // hash no longer matches the recomputed one.
  const std::vector<std::string> specs = {
      "kernel=lr_walk machine=mta:procs=1 n=256"};
  const SweepPlan plan = expand_all(specs);
  RunManifest m = make_manifest(specs, plan);
  m.cells[0].cell.n = 512;
  EXPECT_FALSE(verify_manifest(m, records_for(plan)).empty());
}

TEST(VerifyManifest, StoreCoverageIsBidirectional) {
  const std::vector<std::string> specs = {
      "kernel=lr_walk machine=mta:procs={1,2} n=256"};
  const SweepPlan plan = expand_all(specs);
  const RunManifest m = make_manifest(specs, plan);

  // A store missing one manifest cell fails...
  std::vector<ResultRecord> partial = records_for(plan);
  partial.pop_back();
  const std::vector<std::string> missing = verify_manifest(m, partial);
  ASSERT_EQ(missing.size(), 1u);
  EXPECT_NE(missing[0].find("not in store"), std::string::npos);

  // ...and a store with a cell the manifest never planned fails too.
  std::vector<ResultRecord> extra = records_for(plan);
  ResultRecord stray;
  stray.run_id = "stray/mta:procs=1/random/n=1/m=0/seed=0/t=0";
  extra.push_back(stray);
  const std::vector<std::string> unplanned = verify_manifest(m, extra);
  ASSERT_EQ(unplanned.size(), 1u);
  EXPECT_NE(unplanned[0].find("not in manifest"), std::string::npos);
}

TEST(VerifyManifest, ResultSchemaMismatchIsReported) {
  const std::vector<std::string> specs = {
      "kernel=lr_walk machine=mta:procs=1 n=256"};
  const SweepPlan plan = expand_all(specs);
  RunManifest m = make_manifest(specs, plan);
  m.result_schema_version = kResultSchemaVersion + 1;
  const std::vector<std::string> problems =
      verify_manifest(m, records_for(plan));
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems[0].find("result_schema_version"), std::string::npos);
}

}  // namespace
}  // namespace archgraph::sweep
