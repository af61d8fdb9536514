// sap_cli process-level tests.
//
//   * `jobs --json` emits a machine-readable job/param schema — parsed here
//     with a real (small) JSON parser, not string matching;
//   * the cross-process topology: one `serve --listen` miner daemon process
//     and k `party --connect --serve` processes over loopback TCP (exchange
//     on the hub, contributions and jobs at the reactor door), spawned as
//     genuine OS processes, with the daemon's pooled result asserted
//     bit-identical (digest + multiset digest) to the same logical session
//     run in-process through SapSession/kSimulated.
//
// SAP_CLI_PATH is injected by CMake as the built binary's absolute path.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "data/normalize.hpp"
#include "data/partition.hpp"
#include "data/synthetic.hpp"
#include "net/remote.hpp"
#include "protocol/jobs.hpp"
#include "protocol/session.hpp"

namespace {

using sap::data::Dataset;

// ---- a minimal JSON parser (objects/arrays/strings/numbers/bools) --------

struct Json {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string text;
  std::vector<Json> items;
  std::map<std::string, Json> fields;

  [[nodiscard]] const Json& at(const std::string& key) const {
    const auto it = fields.find(key);
    if (it == fields.end()) throw std::runtime_error("missing key " + key);
    return it->second;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  Json parse() {
    Json value = parse_value();
    skip_ws();
    if (pos_ != text_.size()) throw std::runtime_error("trailing JSON garbage");
    return value;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\n' ||
                                   text_[pos_] == '\t' || text_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    if (pos_ >= text_.size()) throw std::runtime_error("unexpected end of JSON");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) throw std::runtime_error(std::string("expected '") + c + "'");
    ++pos_;
  }

  Json parse_value() {
    skip_ws();
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': {
        Json v;
        v.kind = Json::Kind::kString;
        v.text = parse_string();
        return v;
      }
      case 't':
      case 'f': {
        Json v;
        v.kind = Json::Kind::kBool;
        v.boolean = peek() == 't';
        const std::string word = v.boolean ? "true" : "false";
        if (text_.compare(pos_, word.size(), word) != 0)
          throw std::runtime_error("bad literal");
        pos_ += word.size();
        return v;
      }
      default: return parse_number();
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (peek() != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        c = static_cast<char>(peek());
        ++pos_;
        if (c != '"' && c != '\\') throw std::runtime_error("unsupported escape");
      }
      out.push_back(c);
    }
    ++pos_;
    return out;
  }

  Json parse_number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '-' ||
            text_[pos_] == '+' || text_[pos_] == '.' || text_[pos_] == 'e' ||
            text_[pos_] == 'E'))
      ++pos_;
    if (pos_ == start) throw std::runtime_error("bad JSON number");
    Json v;
    v.kind = Json::Kind::kNumber;
    v.number = std::stod(text_.substr(start, pos_ - start));
    return v;
  }

  Json parse_array() {
    expect('[');
    Json v;
    v.kind = Json::Kind::kArray;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.items.push_back(parse_value());
      skip_ws();
      if (peek() == ']') {
        ++pos_;
        return v;
      }
      expect(',');
    }
  }

  Json parse_object() {
    expect('{');
    Json v;
    v.kind = Json::Kind::kObject;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_ws();
      const std::string key = parse_string();
      skip_ws();
      expect(':');
      v.fields[key] = parse_value();
      skip_ws();
      if (peek() == '}') {
        ++pos_;
        return v;
      }
      expect(',');
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

/// Run a command, capture all stdout/stderr, return the exit status.
int run_command(const std::string& command, std::string& output) {
  output.clear();
  FILE* pipe = popen((command + " 2>&1").c_str(), "r");
  if (!pipe) return -1;
  char buf[4096];
  while (std::fgets(buf, sizeof buf, pipe)) output += buf;
  const int status = pclose(pipe);
  return status;
}

// ---- jobs --json ---------------------------------------------------------

TEST(CliJobsJson, SchemaParsesAndCoversBuiltins) {
  const auto registry = sap::proto::JobRegistry::builtins();
  const Json root = JsonParser(sap::proto::schema_json(registry)).parse();
  const Json& jobs = root.at("jobs");
  ASSERT_EQ(jobs.kind, Json::Kind::kArray);
  ASSERT_EQ(jobs.items.size(), registry.names().size());

  std::map<std::string, const Json*> by_name;
  for (const Json& job : jobs.items) {
    EXPECT_EQ(job.kind, Json::Kind::kObject);
    const std::string kind = job.at("kind").text;
    EXPECT_TRUE(kind == "trainable" || kind == "structural") << kind;
    EXPECT_FALSE(job.at("summary").text.empty());
    for (const Json& param : job.at("params").items) {
      EXPECT_EQ(param.at("default").kind, Json::Kind::kNumber);
      EXPECT_LE(param.at("min").number, param.at("default").number);
      EXPECT_LE(param.at("default").number, param.at("max").number);
      EXPECT_EQ(param.at("serve_only").kind, Json::Kind::kBool);
    }
    by_name[job.at("name").text] = &job;
  }
  // Spot-check one trainable job against the registry's declared schema.
  ASSERT_TRUE(by_name.count("nb-train-accuracy"));
  const Json& nb = *by_name["nb-train-accuracy"];
  EXPECT_EQ(nb.at("kind").text, "trainable");
  ASSERT_EQ(nb.at("params").items.size(), 2u);
  EXPECT_EQ(nb.at("params").items[0].at("name").text, "var-smoothing");
  EXPECT_DOUBLE_EQ(nb.at("params").items[0].at("default").number, 1e-9);
  EXPECT_TRUE(nb.at("params").items[1].at("serve_only").boolean);
}

TEST(CliJobsJson, CliEmitsTheLibrarySchema) {
  std::string output;
  const int status = run_command(std::string(SAP_CLI_PATH) + " jobs --json", output);
  EXPECT_EQ(status, 0);
  EXPECT_EQ(output, sap::proto::schema_json(sap::proto::JobRegistry::builtins()));
  // And it parses standalone.
  EXPECT_NO_THROW((void)JsonParser(output).parse());
}

// ---- cross-process loopback topology ------------------------------------

TEST(CliCrossProcess, DaemonAndPartiesMatchInProcessSession) {
  constexpr std::uint64_t kSeed = 7;
  constexpr std::size_t kParties = 3;
  constexpr std::uint64_t kBatches = 2, kBatchRecords = 10;

  // Reference: the identical logical session in THIS process (kSimulated).
  // Data prep and session options come from the SAME library helpers
  // `sap_cli party`/`contribute` call — one copy, no drift.
  //
  // nb-train-accuracy report per pool epoch: a party's wire request races
  // with the other parties' contributions, so it may legitimately serve at
  // any epoch — AND an intermediate epoch's pool depends on which batch
  // arrived first (the final pool is canonical, the prefixes are not). So
  // the reference replays every contribution arrival order and a wire
  // (epoch, report) pair must match one of them.
  std::map<unsigned long long, std::set<std::string>> ref_job_at_epoch;
  unsigned long long ref_records = 0, ref_multiset = 0;
  std::vector<std::uint64_t> order(kBatches);
  for (std::uint64_t b = 0; b < kBatches; ++b) order[b] = b;
  do {
    auto workload =
        sap::data::make_stream_workload("Iris", kParties, kBatches, kBatchRecords, kSeed);
    const Dataset& stream = workload.stream;
    sap::proto::SapSession reference(std::move(workload.shards),
                                     sap::net::serving_session_options(0.1, kSeed));
    reference.run_until(sap::proto::SessionPhase::kMine);
    const auto note_epoch = [&] {
      const auto response = reference.engine().run({"nb-train-accuracy", {}});
      char text[64];
      std::snprintf(text, sizeof text, "%.6f", response.values[0]);
      ref_job_at_epoch[response.pool_epoch].insert(text);
    };
    note_epoch();
    for (const std::uint64_t b : order) {
      (void)reference.contribute(b % kParties,
                                 stream.slice(b * kBatchRecords, (b + 1) * kBatchRecords));
      note_epoch();
    }
    const auto ref_view = reference.engine().pool_view();
    ref_records = ref_view.data->size();
    ref_multiset = sap::net::dataset_multiset_digest(*ref_view.data);
  } while (std::next_permutation(order.begin(), order.end()));

  // Daemon process on ephemeral ports; parse the hub's and the reactor
  // door's bound ports from stdout (the reactor line follows the hub's).
  const std::string cli = SAP_CLI_PATH;
  FILE* daemon = popen((cli + " serve --listen 127.0.0.1:0 --parties 3 --seed 7"
                              " --deadline-ms 60000 2>&1")
                           .c_str(),
                       "r");
  ASSERT_NE(daemon, nullptr);
  std::string daemon_output;
  char line[4096];
  int port = 0, door_port = 0, loops = 0;
  while (std::fgets(line, sizeof line, daemon)) {
    daemon_output += line;
    (void)std::sscanf(line, "listening on 127.0.0.1:%d", &port);
    if (std::sscanf(line, "reactor listening on 127.0.0.1:%d (%d loops)", &door_port,
                    &loops) == 2)
      break;
  }
  ASSERT_GT(port, 0) << daemon_output;
  ASSERT_GT(door_port, 0) << daemon_output;
  EXPECT_EQ(loops, 2) << daemon_output;  // the --reactor-loops default

  // k genuine party processes.
  std::vector<std::thread> threads;
  std::vector<std::string> party_output(kParties);
  std::vector<int> party_status(kParties, -1);
  for (std::size_t i = 0; i < kParties; ++i) {
    threads.emplace_back([&, i] {
      const std::string cmd = cli + " party Iris 3 0.1 7 --connect 127.0.0.1:" +
                              std::to_string(port) + " --serve 127.0.0.1:" +
                              std::to_string(door_port) + " --index " + std::to_string(i) +
                              " --batches 2 --batch-records 10 --job nb-train-accuracy" +
                              " --deadline-ms 60000";
      party_status[i] = run_command(cmd, party_output[i]);
    });
  }
  for (auto& t : threads) t.join();

  // Drain the daemon to completion.
  while (std::fgets(line, sizeof line, daemon)) daemon_output += line;
  const int daemon_status = pclose(daemon);
  EXPECT_EQ(daemon_status, 0) << daemon_output;
  for (std::size_t i = 0; i < kParties; ++i) {
    EXPECT_EQ(party_status[i], 0) << "party " << i << ":\n" << party_output[i];
    EXPECT_NE(party_output[i].find("done"), std::string::npos) << party_output[i];
  }

  // The daemon's final pool equals the in-process reference: same record
  // count, same records (multiset digest — concurrent contributors make the
  // append order scheduling-dependent).
  unsigned long long records = 0, epoch = 0, digest = 0, multiset = 0;
  const auto served_at = daemon_output.find("served: ");
  ASSERT_NE(served_at, std::string::npos) << daemon_output;
  ASSERT_EQ(std::sscanf(daemon_output.c_str() + served_at,
                        "served: %llu records at epoch %llu, digest %llu, multiset %llu",
                        &records, &epoch, &digest, &multiset),
            4)
      << daemon_output;
  EXPECT_EQ(records, ref_records);
  EXPECT_EQ(epoch, 1 + kBatches);
  EXPECT_EQ(multiset, ref_multiset);

  // Wire-served job reports match in-process serving at whatever epoch the
  // request landed on.
  for (std::size_t i = 0; i < kParties; ++i) {
    const auto at = party_output[i].find("job nb-train-accuracy -> [");
    ASSERT_NE(at, std::string::npos) << party_output[i];
    char value[64] = {};
    unsigned long long job_epoch = 0;
    ASSERT_EQ(std::sscanf(party_output[i].c_str() + at,
                          "job nb-train-accuracy -> [%63[^]]] (epoch %llu)", value,
                          &job_epoch),
              2)
        << party_output[i];
    ASSERT_TRUE(ref_job_at_epoch.count(job_epoch))
        << "party " << i << " served at unknown epoch " << job_epoch;
    EXPECT_TRUE(ref_job_at_epoch[job_epoch].count(value))
        << "party " << i << " at epoch " << job_epoch << " served " << value
        << ", not an in-process report at that epoch";
  }
}

TEST(CliCrossProcess, ServingFlagsAreValidatedBeforeAnyNetworkWork) {
  const std::string cli = SAP_CLI_PATH;
  const auto exit_code = [&](const std::string& args, std::string& output) {
    const int status = run_command(cli + " " + args, output);
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  };
  std::string output;
  // Streaming batches (the default --batches 4) or running a job needs the
  // reactor door's address.
  EXPECT_EQ(exit_code("party Iris 3 0.1 7 --connect 127.0.0.1:1 --index 0", output), 2)
      << output;
  EXPECT_NE(output.find("--serve"), std::string::npos) << output;
  EXPECT_EQ(exit_code("party Iris 3 0.1 7 --connect 127.0.0.1:1 --index 0 --batches 0 "
                      "--job record-count",
                      output),
            2)
      << output;
  // The reactor is the one serving door: zero loops is not a configuration.
  EXPECT_EQ(exit_code("serve --listen 127.0.0.1:0 --parties 3 --reactor-loops 0", output), 2)
      << output;
  EXPECT_NE(output.find("[1, 64]"), std::string::npos) << output;
}

}  // namespace
