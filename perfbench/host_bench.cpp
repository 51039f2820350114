// perfbench_host — the measuring half of the host benchmark (perfbench/run.py
// is the other half: it builds this program, picks the workload's specs and
// turns the raw numbers printed here into metrics).
//
//   perfbench_host --jobs J --seconds S --trace 0|1 SPEC...
//
// Prints one JSON document on stdout:
//   setup   several timed set-ups: sweep::expand_all over the specs plus one
//           sweep::make_input per distinct input key;
//   reps    untraced sweep::run_plan repetitions (verify on, trace/profile/
//           telemetry off), repeated on freshly seeded inputs while the next
//           one fits in S seconds (always at least one; with --trace 1, one
//           at --jobs plus one serial of the same plan when --jobs > 1);
//   records the record_json lines of the first repetition, whose inputs are
//           exactly the specs' (a serial reference must reproduce them);
//   peak_rss_kb  the process's peak resident memory after repetition 0;
//   traced  with --trace 1 only: a serial pass that drives every cell through
//           the layers' public calls one at a time, with a span around each
//           call and a counting sim::ProfHook on the machine.
// The program measures from outside: nothing in the library is instrumented.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <exception>
#include <iostream>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/check.hpp"
#include "common/parse.hpp"
#include "common/timer.hpp"
#include "core/concomp/concomp.hpp"
#include "core/experiment.hpp"
#include "core/listrank/listrank.hpp"
#include "graph/csr_graph.hpp"
#include "obs/json.hpp"
#include "sim/machine_spec.hpp"
#include "sweep/registry.hpp"
#include "sweep/runner.hpp"
#include "sweep/spec.hpp"
#include "sweep/store.hpp"

namespace ag = archgraph;

namespace {

// Set-up is short and noisy, so it is repeated and run.py takes the median.
constexpr int kSetupReps = 15;

struct Args {
  ag::usize jobs = 1;
  double seconds = 10.0;
  bool trace = false;
  std::vector<std::string> specs;
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      AG_CHECK(i + 1 < argc, arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--jobs") {
      args.jobs =
          static_cast<ag::usize>(ag::parse_positive_i64("--jobs", next()));
    } else if (arg == "--seconds") {
      args.seconds = ag::parse_f64("--seconds", next());
    } else if (arg == "--trace") {
      const std::string v = next();
      AG_CHECK(v == "0" || v == "1", "--trace wants 0 or 1");
      args.trace = v == "1";
    } else {
      AG_CHECK(arg.rfind("--", 0) != 0, "unknown flag '" + arg + "'");
      args.specs.push_back(arg);
    }
  }
  AG_CHECK(!args.specs.empty(), "at least one SPEC is required");
  return args;
}

/// What sweep::make_input's result depends on — the same composition
/// run_plan's input cache keys on, built from the registry's public helpers.
std::string input_key(const ag::sweep::KernelInfo& kernel,
                      const ag::sweep::SweepCell& cell) {
  std::string key =
      kernel.input == ag::sweep::InputKind::kList ? "list/" : "graph/";
  key += ag::sweep::layout_name(cell.layout);
  key += "/n=" + std::to_string(cell.n);
  key += "/m=" + std::to_string(ag::sweep::resolved_m(kernel, cell));
  key += "/seed=" + std::to_string(ag::sweep::resolved_seed(kernel, cell));
  return key;
}

/// The sequential oracle the registry checks this kernel against (the
/// coloring and BFS checks build the CSR form first, as the registry does).
/// Returns the oracle's answer size so the call cannot be optimized away.
ag::usize run_oracle(const ag::sweep::KernelInfo& kernel,
                     const ag::sweep::KernelInput& input) {
  const std::string& name = kernel.name;
  if (kernel.input == ag::sweep::InputKind::kList) {
    return ag::core::rank_sequential(input.list).size();
  }
  if (name.rfind("color_", 0) == 0) {
    return ag::core::color_greedy_seq(
               ag::graph::CsrGraph::from_edges(input.graph))
        .size();
  }
  if (name.rfind("bfs_", 0) == 0) {
    return ag::core::bfs_tree_seq(ag::graph::CsrGraph::from_edges(input.graph))
        .level.size();
  }
  return ag::core::cc_union_find(input.graph).size();
}

/// Counts the simulator's event-queue pops and serviced memory accesses.
/// Read-only, like every ProfHook: the traced records must equal the
/// untraced ones byte for byte.
class CountingHook final : public ag::sim::ProfHook {
 public:
  void on_prof_region_begin(const ag::sim::Machine&) override {}
  void on_advance(const ag::sim::Machine&, ag::sim::Cycle) override {
    ++events;
  }
  void on_access(ag::sim::Addr, ag::sim::AccessClass, bool) override {
    ++accesses;
  }
  void on_prof_region_end(const ag::sim::Machine&) override {}

  ag::i64 events = 0;
  ag::i64 accesses = 0;
};

/// In-memory span log: name, id, parent index (-1 for the root), start and
/// end in seconds since the tracer was made. Written out when the run ends.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::string id;
    ag::i64 parent = -1;
    double start = 0.0;
    double end = 0.0;
  };

  /// Opens a span on construction and closes it on destruction (also when
  /// the traced call throws).
  class Scope {
   public:
    Scope(Tracer& tracer, std::string name, std::string id = {})
        : tracer_(tracer) {
      const ag::i64 parent =
          tracer_.open_.empty() ? -1 : tracer_.open_.back();
      tracer_.open_.push_back(static_cast<ag::i64>(tracer_.spans_.size()));
      tracer_.spans_.push_back(
          {std::move(name), std::move(id), parent, tracer_.clock_.seconds(),
           0.0});
    }
    ~Scope() {
      tracer_.spans_[static_cast<ag::usize>(tracer_.open_.back())].end =
          tracer_.clock_.seconds();
      tracer_.open_.pop_back();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
  };

  void write(ag::obs::JsonWriter& w) const {
    w.begin_array();
    for (const Span& s : spans_) {
      w.begin_object()
          .field("name", std::string_view(s.name))
          .field("id", std::string_view(s.id))
          .field("parent", s.parent)
          .field("start", s.start)
          .field("end", s.end)
          .end_object();
    }
    w.end_array();
  }

 private:
  ag::Timer clock_;
  std::vector<Span> spans_;
  std::vector<ag::i64> open_;
};

struct Failures {
  ag::i64 failed = 0;
  std::vector<std::string> errors;

  void add(ag::i64 cells, const std::string& error) {
    failed += cells;
    if (errors.size() < 8) errors.push_back(error);
  }
};

void timed_setup(const std::vector<std::string>& specs, ag::obs::JsonWriter& w) {
  w.key("setup").begin_array();
  for (int rep = 0; rep < kSetupReps; ++rep) {
    ag::Timer expand_timer;
    const ag::sweep::SweepPlan plan = ag::sweep::expand_all(specs);
    const double expand_s = expand_timer.seconds();
    std::unordered_set<std::string> seen;
    double make_input_s = 0.0;
    for (const ag::sweep::SweepCell& cell : plan.cells) {
      const ag::sweep::KernelInfo& kernel = ag::sweep::find_kernel(cell.kernel);
      if (!seen.insert(input_key(kernel, cell)).second) continue;
      ag::Timer timer;
      const ag::sweep::KernelInput input = ag::sweep::make_input(kernel, cell);
      make_input_s += timer.seconds();
    }
    w.begin_object()
        .field("expand_s", expand_s)
        .field("make_input_s", make_input_s)
        .field("inputs", static_cast<ag::i64>(seen.size()))
        .end_object();
  }
  w.end_array();
}

/// The process's peak resident memory so far, in KiB.
ag::i64 peak_rss_kb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<ag::i64>(usage.ru_maxrss);
}

/// Repetition `rep` > 0 of a --trace 0 run redraws every input: each cell's
/// seed moves by rep times an odd constant, which keeps distinct seeds
/// distinct. The median over repetitions is then a median over inputs, so one
/// input that happens to need an extra Shiloach-Vishkin round cannot set it.
ag::sweep::SweepPlan reseeded(ag::sweep::SweepPlan plan, int rep) {
  for (ag::sweep::SweepCell& cell : plan.cells) {
    cell.seed += static_cast<ag::u64>(rep) * 0x9E3779B97F4A7C15ull;
  }
  return plan;
}

/// Untraced run_plan repetitions; returns the first repetition's records.
std::vector<std::string> untraced_reps(const ag::sweep::SweepPlan& plan,
                                       const Args& args, Failures& failures,
                                       ag::i64& attempted, ag::i64& peak_kb,
                                       ag::obs::JsonWriter& w) {
  ag::sweep::RunOptions options;
  std::vector<std::string> first;
  const ag::usize total = plan.cells.size();
  ag::Timer clock;
  double last = 0.0;
  w.key("reps").begin_array();
  for (int rep = 0;; ++rep) {
    // With --trace 1: one repetition at the workload's jobs (rt.busy_frac)
    // and, when that was parallel, one serial repetition of the same plan,
    // the untraced reference for trace.overhead (parallel cells run slower
    // per cell).
    const bool serial_reference = args.trace && rep == 1;
    const bool more = args.trace ? rep == 0 || (serial_reference &&
                                                args.jobs > 1)
                                 : rep == 0 || clock.seconds() + last <=
                                                   args.seconds;
    if (!more) break;
    options.jobs = serial_reference ? 1 : args.jobs;
    const ag::sweep::SweepPlan rep_plan =
        args.trace || rep == 0 ? plan : reseeded(plan, rep);
    const double started = clock.seconds();
    std::vector<std::string> lines;
    lines.reserve(total);
    attempted += static_cast<ag::i64>(total);
    ag::sweep::PlanRun run;
    try {
      run = ag::sweep::run_plan(
          rep_plan, options,
          [&](const ag::sweep::CellResult& r, ag::usize, ag::usize) {
            lines.push_back(ag::sweep::record_json(ag::sweep::to_record(r)));
          });
    } catch (const std::exception& e) {
      // run_plan stops at the first failing cell; the undelivered rest of
      // the plan is counted as failed, and measuring stops.
      failures.add(static_cast<ag::i64>(total - lines.size()), e.what());
      if (rep == 0) first = std::move(lines);
      break;
    }
    last = clock.seconds() - started;
    double cell_s = 0.0;
    ag::i64 instructions = 0;
    for (const ag::sweep::CellResult& c : run.cells) {
      cell_s += c.host_seconds;
      instructions += c.meas.stats.instructions;
    }
    w.begin_object()
        .field("wall_s", run.host_seconds)
        .field("cell_s", cell_s)
        .field("instructions", instructions)
        .field("inputs_generated", static_cast<ag::i64>(run.inputs_generated))
        .field("jobs", static_cast<ag::i64>(run.jobs))
        .end_object();
    if (rep == 0) {
      // Later repetitions inherit the allocator's state, so only the first
      // one's peak is comparable from run to run.
      peak_kb = peak_rss_kb();
      first = std::move(lines);
    } else if (serial_reference) {
      for (ag::usize i = 0; i < total; ++i) {
        if (lines[i] != first[i]) {
          failures.add(1, "the serial run changed the record of " +
                              plan.cells[i].run_id());
        }
      }
    }
  }
  w.end_array();
  return first;
}

/// The serial traced pass: spans nest workload > cell > layer call.
void traced_pass(const std::vector<std::string>& specs, Failures& failures,
                 ag::i64& attempted, ag::obs::JsonWriter& w) {
  Tracer tracer;
  std::vector<std::string> records;
  ag::i64 inputs_built = 0;
  w.key("traced").begin_object().key("cells").begin_array();
  {
    Tracer::Scope workload(tracer, "workload");
    ag::sweep::SweepPlan plan;
    {
      Tracer::Scope span(tracer, "sweep.expand");
      plan = ag::sweep::expand_all(specs);
    }
    std::unordered_map<std::string, ag::usize> uses;
    for (const ag::sweep::SweepCell& cell : plan.cells) {
      ++uses[input_key(ag::sweep::find_kernel(cell.kernel), cell)];
    }
    std::unordered_map<std::string, ag::sweep::KernelInput> inputs;
    for (const ag::sweep::SweepCell& cell : plan.cells) {
      ++attempted;
      try {
        Tracer::Scope cell_span(tracer, "cell", cell.run_id());
        const ag::sweep::KernelInfo& kernel =
            ag::sweep::find_kernel(cell.kernel);
        const std::string key = input_key(kernel, cell);
        auto input = inputs.find(key);
        if (input == inputs.end()) {
          Tracer::Scope span(tracer, "graph.make_input", key);
          input = inputs.emplace(key, ag::sweep::make_input(kernel, cell)).first;
          ++inputs_built;
        }
        const std::string arch(ag::sim::arch_name(
            ag::sim::parse_machine_spec(cell.machine).arch));
        std::unique_ptr<ag::sim::Machine> machine;
        {
          Tracer::Scope span(tracer, "sim.make_machine");
          machine = ag::sim::make_machine(cell.machine);
        }
        CountingHook hook;
        machine->set_prof_hook(&hook);
        ag::sweep::KernelRun run;
        {
          Tracer::Scope span(tracer, "sim." + arch + ".run");
          run = kernel.run(*machine, input->second, /*verify=*/false);
        }
        machine->set_prof_hook(nullptr);
        {
          Tracer::Scope span(tracer, "core.verify");
          AG_CHECK(run_oracle(kernel, input->second) > 0,
                   "empty oracle answer for " + cell.run_id());
        }
        {
          Tracer::Scope span(tracer, "sweep.emit");
          ag::sweep::CellResult result;
          result.cell = cell;
          result.meas = ag::core::snapshot(*machine);
          result.iterations = run.iterations;
          // This pass verifies by equality: run.py requires each record to
          // equal, byte for byte, the record of the oracle-checked untraced
          // run of the same cell (core.verify above times the oracle itself).
          result.verified = true;
          records.push_back(
              ag::sweep::record_json(ag::sweep::to_record(result)));
        }
        const ag::sim::MachineStats& s = machine->stats();
        w.begin_object()
            .field("arch", std::string_view(arch))
            .field("instructions", s.instructions)
            .field("events", hook.events)
            .field("accesses", hook.accesses)
            .field("sync_retries", s.sync_retries)
            .field("memory_ops", s.memory_ops)
            .field("l1_hits", s.l1_hits)
            .end_object();
        if (--uses[key] == 0) inputs.erase(key);
      } catch (const std::exception& e) {
        failures.add(1, cell.run_id() + ": " + e.what());
        records.emplace_back();
      }
    }
  }
  w.end_array();
  w.field("inputs_built", inputs_built);
  w.key("spans");
  tracer.write(w);
  w.key("records").begin_array();
  for (const std::string& r : records) w.value(std::string_view(r));
  w.end_array().end_object();
}

int run(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  Failures failures;
  ag::i64 attempted = 0;
  ag::obs::JsonWriter w;
  w.begin_object();
  timed_setup(args.specs, w);
  const ag::sweep::SweepPlan plan = ag::sweep::expand_all(args.specs);
  w.field("cells", static_cast<ag::i64>(plan.cells.size()));
  ag::i64 peak_kb = 0;
  const std::vector<std::string> records =
      untraced_reps(plan, args, failures, attempted, peak_kb, w);
  w.field("peak_rss_kb", peak_kb);
  w.key("records").begin_array();
  for (const std::string& r : records) w.value(std::string_view(r));
  w.end_array();
  if (args.trace) traced_pass(args.specs, failures, attempted, w);
  w.field("attempted", attempted).field("failed", failures.failed);
  w.key("errors").begin_array();
  for (const std::string& e : failures.errors) w.value(std::string_view(e));
  w.end_array().end_object();
  std::cout << w.str() << '\n';
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_host: %s\n", e.what());
    return 1;
  }
}
