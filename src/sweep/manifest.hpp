// Run provenance for sweep stores. Every `archgraph_sweep run --out FILE`
// writes FILE.manifest.json next to the JSONL store: the schema versions, the
// code version the binary was built from, the canonical plan spec(s) with
// their per-axis values, and — the part ROADMAP item 4's content-addressed
// result store will key on — one FNV-1a content hash per cell computed over
// exactly (kernel, machine, layout, n, m, seed, trial). The hash is a pure
// function of the cell's canonical axes, so re-running the same plan on any
// host, any --jobs, any telemetry configuration reproduces the same keys.
//
// verify_manifest() closes the loop: it recomputes every cell hash from the
// axes recorded in the manifest (a corrupted hash or a tampered axis fails)
// and cross-checks run-ID coverage against a loaded result store (a cell in
// the store but not the manifest — or vice versa — fails). ci_smoke runs it
// on every commit via `archgraph_sweep verify-manifest`.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "sweep/spec.hpp"
#include "sweep/store.hpp"

namespace archgraph::sweep {

/// Bump when the manifest document changes incompatibly; load_manifest
/// refuses other versions naming both.
inline constexpr i64 kManifestSchemaVersion = 1;

/// FNV-1a (64-bit) over the cell's canonical axis serialization — the
/// content key a resumable store addresses results by. Field values are
/// separated by '\x1f' (unit separator, which cannot appear in any axis
/// value) so adjacent fields can never alias.
u64 cell_content_hash(const SweepCell& cell);

/// cell_content_hash as fixed-width lowercase hex (16 chars).
std::string cell_content_hash_hex(const SweepCell& cell);

/// The code version baked into this binary at configure time (the git
/// revision via the ARCHGRAPH_CODE_VERSION compile definition; "unknown"
/// outside a git checkout). Recorded in every manifest so a result store can
/// be traced back to the simulator that produced it.
std::string code_version();

struct ManifestCell {
  std::string run_id;
  std::string hash;  // cell_content_hash_hex of the axes below
  SweepCell cell;    // the canonical axes themselves

  bool operator==(const ManifestCell&) const = default;
};

struct RunManifest {
  i64 schema_version = kManifestSchemaVersion;
  /// The store schema the accompanying JSONL was written with.
  i64 result_schema_version = kResultSchemaVersion;
  std::string code_version;
  /// Canonical spec strings (SweepSpec::to_string), one per plan part; their
  /// parsed forms carry the per-axis values serialized into the document.
  std::vector<std::string> specs;
  std::vector<ManifestCell> cells;  // plan order

  bool operator==(const RunManifest&) const = default;
};

/// Builds the manifest for a plan: canonicalizes each spec, expands nothing
/// (the caller passes the already-expanded plan so the manifest describes
/// exactly what ran), and hashes every cell.
RunManifest make_manifest(const std::vector<std::string>& spec_texts,
                          const SweepPlan& plan);

/// One pretty-stable JSON document (single line per cell entry is not
/// required; the writer emits one compact object).
std::string manifest_json(const RunManifest& manifest);

/// Parses a manifest document. Throws std::logic_error naming `source` on
/// malformed JSON, a missing/incompatible schema_version, or missing fields.
RunManifest parse_manifest(std::string_view text,
                           std::string_view source = "<string>");

/// parse_manifest on a file; throws when the file cannot be opened.
RunManifest load_manifest_file(const std::string& path);

/// Writes manifest_json to `path` atomically: to `<path>.tmp`, then renamed
/// over `path`. False (with the reason on stderr) on failure, leaving any
/// previous manifest at `path` untouched.
bool write_manifest_file(const std::string& path, const RunManifest& manifest);

/// The manifest path convention for a store path: "<out>.manifest.json".
std::string default_manifest_path(const std::string& out_path);

/// Every problem found, empty when the manifest is sound against the store:
///   * a cell whose recorded hash does not match its recorded axes;
///   * a cell whose run_id does not match its recorded axes;
///   * a store record with no manifest cell, or a manifest cell with no
///     store record (coverage in both directions);
///   * a result_schema_version differing from the store's records.
std::vector<std::string> verify_manifest(
    const RunManifest& manifest, const std::vector<ResultRecord>& records);

}  // namespace archgraph::sweep
