#include "sweep/manifest.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>

#include "common/check.hpp"
#include "obs/json.hpp"

#ifndef ARCHGRAPH_CODE_VERSION
#define ARCHGRAPH_CODE_VERSION "unknown"
#endif

namespace archgraph::sweep {

namespace {

constexpr u64 kFnvOffset = 14695981039346656037ull;
constexpr u64 kFnvPrime = 1099511628211ull;

void fnv1a_bytes(u64& h, std::string_view bytes) {
  for (const char c : bytes) {
    h = (h ^ static_cast<u8>(c)) * kFnvPrime;
  }
}

/// One field: the bytes, then the unit separator — so ("ab","c") can never
/// hash like ("a","bc").
void fnv1a_field(u64& h, std::string_view field) {
  fnv1a_bytes(h, field);
  fnv1a_bytes(h, std::string_view("\x1f", 1));
}

}  // namespace

u64 cell_content_hash(const SweepCell& cell) {
  u64 h = kFnvOffset;
  fnv1a_field(h, cell.kernel);
  fnv1a_field(h, cell.machine);
  fnv1a_field(h, layout_name(cell.layout));
  fnv1a_field(h, std::to_string(cell.n));
  fnv1a_field(h, std::to_string(cell.m));
  fnv1a_field(h, std::to_string(cell.seed));
  fnv1a_field(h, std::to_string(cell.trial));
  return h;
}

std::string cell_content_hash_hex(const SweepCell& cell) {
  const u64 h = cell_content_hash(cell);
  std::string out;
  out.reserve(16);
  constexpr char kHex[] = "0123456789abcdef";
  for (int shift = 60; shift >= 0; shift -= 4) {
    out += kHex[(h >> shift) & 0xf];
  }
  return out;
}

std::string code_version() { return ARCHGRAPH_CODE_VERSION; }

RunManifest make_manifest(const std::vector<std::string>& spec_texts,
                          const SweepPlan& plan) {
  RunManifest m;
  m.code_version = code_version();
  m.specs.reserve(spec_texts.size());
  for (const std::string& text : spec_texts) {
    m.specs.push_back(parse_sweep_spec(text).to_string());
  }
  m.cells.reserve(plan.cells.size());
  for (const SweepCell& cell : plan.cells) {
    m.cells.push_back(
        ManifestCell{cell.run_id(), cell_content_hash_hex(cell), cell});
  }
  return m;
}

namespace {

void write_axes(obs::JsonWriter& w, const SweepSpec& spec) {
  w.begin_object();
  w.key("kernels").begin_array();
  for (const std::string& k : spec.kernels) w.value(k);
  w.end_array();
  w.key("machines").begin_array();
  for (const std::string& s : spec.machines) w.value(s);
  w.end_array();
  w.key("layouts").begin_array();
  for (const Layout l : spec.layouts) w.value(layout_name(l));
  w.end_array();
  w.key("ns").begin_array();
  for (const i64 n : spec.ns) w.value(n);
  w.end_array();
  w.key("ms").begin_array();
  for (const i64 v : spec.ms) w.value(v);
  w.end_array();
  w.key("seeds").begin_array();
  for (const u64 s : spec.seeds) w.value(s);
  w.end_array();
  w.field("trials", spec.trials);
  w.end_object();
}

}  // namespace

std::string manifest_json(const RunManifest& manifest) {
  obs::JsonWriter w;
  w.begin_object()
      .field("manifest_schema_version", manifest.schema_version)
      .field("result_schema_version", manifest.result_schema_version)
      .field("code_version", manifest.code_version);
  w.key("specs").begin_array();
  for (const std::string& spec : manifest.specs) w.value(spec);
  w.end_array();
  // Per-axis values of every spec, parsed back from the canonical strings so
  // the document is self-describing without re-deriving the grammar.
  w.key("axes").begin_array();
  for (const std::string& spec : manifest.specs) {
    write_axes(w, parse_sweep_spec(spec));
  }
  w.end_array();
  w.field("cell_count", static_cast<i64>(manifest.cells.size()));
  w.key("cells").begin_array();
  for (const ManifestCell& c : manifest.cells) {
    w.begin_object()
        .field("run_id", c.run_id)
        .field("hash", c.hash)
        .field("kernel", c.cell.kernel)
        .field("machine", c.cell.machine)
        .field("layout", layout_name(c.cell.layout))
        .field("n", c.cell.n)
        .field("m", c.cell.m)
        .field("seed", c.cell.seed)
        .field("trial", c.cell.trial)
        .end_object();
  }
  w.end_array().end_object();
  return w.take();
}

namespace {

const obs::JsonValue& require(const obs::JsonValue& obj, std::string_view key,
                              std::string_view source) {
  const obs::JsonValue* v = obj.find(key);
  AG_CHECK(v != nullptr, "manifest " + std::string(source) + ": missing '" +
                             std::string(key) + "'");
  return *v;
}

}  // namespace

RunManifest parse_manifest(std::string_view text, std::string_view source) {
  obs::JsonValue doc;
  std::string error;
  AG_CHECK(obs::json_parse(text, &doc, &error),
           "manifest " + std::string(source) + ": malformed JSON (" + error +
               ")");
  AG_CHECK(doc.is_object(),
           "manifest " + std::string(source) + ": expected one JSON object");

  const obs::JsonValue& version =
      require(doc, "manifest_schema_version", source);
  AG_CHECK(version.is_integer() &&
               version.as_i64() == kManifestSchemaVersion,
           "manifest " + std::string(source) + ": manifest_schema_version " +
               (version.is_integer() ? std::to_string(version.as_i64())
                                     : std::string("?")) +
               " is incompatible with this build's version " +
               std::to_string(kManifestSchemaVersion));

  RunManifest m;
  m.schema_version = version.as_i64();
  const obs::JsonValue& result_version =
      require(doc, "result_schema_version", source);
  AG_CHECK(result_version.is_integer(),
           "manifest " + std::string(source) +
               ": result_schema_version must be an integer");
  m.result_schema_version = result_version.as_i64();
  const obs::JsonValue& code = require(doc, "code_version", source);
  AG_CHECK(code.is_string(), "manifest " + std::string(source) +
                                 ": code_version must be a string");
  m.code_version = code.as_string();

  const obs::JsonValue& specs = require(doc, "specs", source);
  AG_CHECK(specs.is_array(),
           "manifest " + std::string(source) + ": specs must be an array");
  for (const obs::JsonValue& s : specs.items()) {
    AG_CHECK(s.is_string(), "manifest " + std::string(source) +
                                ": specs entries must be strings");
    m.specs.push_back(s.as_string());
  }

  const obs::JsonValue& cells = require(doc, "cells", source);
  AG_CHECK(cells.is_array(),
           "manifest " + std::string(source) + ": cells must be an array");
  for (const obs::JsonValue& c : cells.items()) {
    AG_CHECK(c.is_object(), "manifest " + std::string(source) +
                                ": cells entries must be objects");
    ManifestCell cell;
    cell.run_id = require(c, "run_id", source).as_string();
    cell.hash = require(c, "hash", source).as_string();
    cell.cell.kernel = require(c, "kernel", source).as_string();
    cell.cell.machine = require(c, "machine", source).as_string();
    cell.cell.layout = parse_layout(require(c, "layout", source).as_string());
    cell.cell.n = require(c, "n", source).as_i64();
    cell.cell.m = require(c, "m", source).as_i64();
    cell.cell.seed = static_cast<u64>(require(c, "seed", source).as_i64());
    cell.cell.trial = require(c, "trial", source).as_i64();
    m.cells.push_back(std::move(cell));
  }

  const obs::JsonValue& count = require(doc, "cell_count", source);
  AG_CHECK(count.is_integer() &&
               count.as_i64() == static_cast<i64>(m.cells.size()),
           "manifest " + std::string(source) + ": cell_count " +
               (count.is_integer() ? std::to_string(count.as_i64())
                                   : std::string("?")) +
               " does not match the " + std::to_string(m.cells.size()) +
               " cells listed");
  return m;
}

RunManifest load_manifest_file(const std::string& path) {
  std::ifstream in(path);
  AG_CHECK(static_cast<bool>(in), "cannot open manifest file " + path);
  std::stringstream buf;
  buf << in.rdbuf();
  return parse_manifest(buf.str(), path);
}

bool write_manifest_file(const std::string& path,
                         const RunManifest& manifest) {
  // Write a sibling temp file and rename it over `path`, so a crash leaves
  // either the old manifest or the new one, never a torn one.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp);
    if (!out) {
      std::cerr << "warning: cannot write " << tmp << ": "
                << std::strerror(errno) << '\n';
      return false;
    }
    out << manifest_json(manifest) << '\n';
    out.flush();
    if (!out) {
      std::cerr << "warning: short write to " << tmp << ": "
                << std::strerror(errno) << '\n';
      std::remove(tmp.c_str());
      return false;
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::cerr << "warning: cannot rename " << tmp << " to " << path << ": "
              << ec.message() << '\n';
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

std::string default_manifest_path(const std::string& out_path) {
  return out_path + ".manifest.json";
}

std::vector<std::string> verify_manifest(
    const RunManifest& manifest, const std::vector<ResultRecord>& records) {
  std::vector<std::string> problems;
  if (manifest.result_schema_version != kResultSchemaVersion) {
    problems.push_back("manifest result_schema_version " +
                       std::to_string(manifest.result_schema_version) +
                       " != store schema " +
                       std::to_string(kResultSchemaVersion));
  }
  std::set<std::string> manifest_ids;
  for (const ManifestCell& c : manifest.cells) {
    if (!manifest_ids.insert(c.run_id).second) {
      problems.push_back("duplicate manifest cell " + c.run_id);
    }
    const std::string expect_hash = cell_content_hash_hex(c.cell);
    if (c.hash != expect_hash) {
      problems.push_back("cell " + c.run_id + ": recorded hash " + c.hash +
                         " != recomputed " + expect_hash +
                         " (manifest corrupted or axes tampered)");
    }
    const std::string expect_id = c.cell.run_id();
    if (c.run_id != expect_id) {
      problems.push_back("cell " + c.run_id + ": recorded axes expand to " +
                         expect_id);
    }
  }
  std::set<std::string> store_ids;
  for (const ResultRecord& r : records) {
    store_ids.insert(r.run_id);
    if (!manifest_ids.contains(r.run_id)) {
      problems.push_back("store cell " + r.run_id + " not in manifest");
    }
  }
  for (const std::string& id : manifest_ids) {
    if (!store_ids.contains(id)) {
      problems.push_back("manifest cell " + id + " not in store");
    }
  }
  return problems;
}

}  // namespace archgraph::sweep
