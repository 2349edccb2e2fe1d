// gpclust-query — classifies ORFs against a persisted family index.
//
// Loads a gpclust-build-index snapshot read-only and serves queries
// through the concurrent QueryService (DESIGN.md §10): k-mer seeding
// against the family representatives, exact striped Smith-Waterman on the
// best-seeded candidates, bounded worker pool + bounded admission queue.
// With --ranks=N it instead serves through the sharded fault-tolerant
// tier (DESIGN.md §12): the index is partitioned across N in-process
// serving ranks (each shard replicated on --replication ranks) behind a
// scatter-gather router with replica fail-over; answers are bit-identical
// to single-node serving whenever every shard keeps a live replica.
//
//   gpclust-query --index=families.gpfi --seq=MKT...          # one query
//   gpclust-query --index=families.gpfi --fasta=reads.faa
//       --workers=4 --out=assignments.tsv                     # batch
//   gpclust-query --index=families.gpfi --fasta=reads.faa
//       --ranks=4 --replication=2 --kill-rank=1@5
//       --resilience=fallback                                 # sharded
//
// Flags:
//   --index=PATH           snapshot written by gpclust-build-index (required)
//   --follow-deltas        also apply the snapshot's delta chain
//                          (families.gpfi.delta.1, .delta.2, ... written by
//                          gpclust-build-index --append) and serve from the
//                          chain tip; a corrupt link is a typed error (4),
//                          a missing link simply ends the chain
//   --seq=RESIDUES         classify one literal protein sequence
//   --fasta=PATH           classify every sequence in a FASTA file
//   --out=PATH             batch mode: write per-query TSV (id, outcome,
//                          family, representative id, score, shared k-mers)
//                          instead of stdout lines
//   --workers=N            worker threads (per rank in sharded mode;
//                          default 1)
//   --queue=N              admission queue capacity; in sharded mode the
//                          per-rank request window (default 64)
//   --admission=off|retry|fallback
//                          full-queue policy: off rejects immediately,
//                          retry/fallback wait with bounded deterministic
//                          backoff before rejecting (default retry)
//   --retries=N            admission (or sharded re-issue) retries when
//                          not off (default 3)
//   --backoff=SECONDS      base admission backoff (default 0.001)
//   --cache=N              per-worker representative-profile LRU capacity
//                          (default 64)
//   --min-shared-kmers=N   seed floor per candidate (default 2)
//   --max-candidates=N     Smith-Waterman budget per query (default 8)
//   --min-score=N          absolute score floor (default 40)
//   --min-score-per-residue=X  length-relative score floor (default 1.2)
//   --seed-index=postings|bucketed
//                          candidate generator ahead of the exact
//                          Smith-Waterman stage: the stored k-mer postings
//                          (ground truth) or the banded min-hash bucket
//                          table (DESIGN.md §13; default postings)
//   --bands=N              bucketed only: signature bands (must divide the
//                          snapshot's signature width; 0 = full-recall
//                          mode, bit-identical to postings; default 32)
//   --min-band-hits=N      bucketed only: band collisions before a
//                          representative is a candidate (default 1)
//   --ranks=N              serve from N sharded ranks + a router rank
//                          instead of the single-node QueryService
//   --replication=R        replicas per shard (default 1; sharded only)
//   --resilience=off|retry|fallback
//                          rank-death policy in sharded mode: off makes
//                          the first death fatal, retry/fallback re-issue
//                          in-flight queries to surviving replicas
//                          (default fallback)
//   --fault-plan=SPEC      fault::FaultPlan spec (e.g. "rank_down@1");
//                          sharded only
//   --kill-rank=R@N        kill serving rank R after it scores N requests
//                          (deterministic mid-stream fail-over seam)
//   --trace-out=PATH       chrome://tracing JSON of the serve spans,
//                          counters and the latency histogram
//   --require-assigned-fraction=F
//                          exit 3 unless assigned/total >= F (CI smoke)
//   --help                 print the flag reference and exit
//
// Exit codes: 0 success; 1 query/serving failure (including typed
// dist::CommError when every replica of a shard is lost); 2 usage
// (including a flag this invocation does not read);
// 3 --require-assigned-fraction unmet; 4 snapshot corruption
// (store::SnapshotError); 5 snapshot I/O failure — missing or truncated
// file (store::SnapshotIoError).

#include <cstdio>
#include <optional>

#include "obs/trace.hpp"
#include "seq/fasta.hpp"
#include "serve/query_service.hpp"
#include "serve/sharded_service.hpp"
#include "store/delta.hpp"
#include "store/snapshot.hpp"
#include "util/cli.hpp"
#include "util/timer.hpp"

namespace {

using namespace gpclust;

void print_help(std::FILE* out) {
  std::fprintf(
      out,
      "gpclust-query: classify ORFs against a persisted family index\n"
      "usage: gpclust-query --index=PATH --seq=RESIDUES | --fasta=PATH "
      "[flags]\n"
      "  --index=PATH           snapshot from gpclust-build-index "
      "(required)\n"
      "  --follow-deltas        apply the snapshot's delta chain and serve "
      "from the tip\n"
      "  --seq=RESIDUES         classify one literal protein sequence\n"
      "  --fasta=PATH           classify every sequence in a FASTA file\n"
      "  --out=PATH             write the per-query TSV here, not stdout\n"
      "  --workers=N            worker threads (per rank in sharded mode)\n"
      "  --queue=N              admission queue / per-rank request window\n"
      "  --admission=off|retry|fallback  full-queue policy\n"
      "  --retries=N            admission or re-issue retries (default 3)\n"
      "  --backoff=SECONDS      base admission backoff (default 0.001)\n"
      "  --cache=N              per-worker profile LRU capacity "
      "(default 64)\n"
      "  --min-shared-kmers=N   seed floor per candidate (default 2)\n"
      "  --max-candidates=N     Smith-Waterman budget per query "
      "(default 8)\n"
      "  --min-score=N          absolute score floor (default 40)\n"
      "  --min-score-per-residue=X  length-relative score floor "
      "(default 1.2)\n"
      "  --seed-index=postings|bucketed  candidate generator "
      "(default postings)\n"
      "  --bands=N              bucketed: signature bands; 0 = full recall "
      "(default 32)\n"
      "  --min-band-hits=N      bucketed: collisions per candidate "
      "(default 1)\n"
      "  --ranks=N              sharded serving over N ranks + a router\n"
      "  --replication=R        replicas per shard (default 1)\n"
      "  --resilience=off|retry|fallback  rank-death policy "
      "(default fallback)\n"
      "  --fault-plan=SPEC      fault plan, e.g. rank_down@1\n"
      "  --kill-rank=R@N        kill rank R after N requests "
      "(fail-over seam)\n"
      "  --trace-out=PATH       chrome://tracing JSON of the serve spans\n"
      "  --require-assigned-fraction=F  exit 3 unless assigned/total >= F\n"
      "  --help                 print this reference and exit\n");
}

serve::SeedIndex seed_index_from(const util::CliArgs& args) {
  return serve::parse_seed_index(args.get_string("seed-index", "postings"));
}

serve::BucketIndexParams bucket_from(const util::CliArgs& args) {
  serve::BucketIndexParams bucket;
  bucket.num_bands = static_cast<u64>(args.get_int("bands", 32));
  bucket.min_band_hits = static_cast<u32>(args.get_int("min-band-hits", 1));
  return bucket;
}

serve::ClassifyParams classify_from(const util::CliArgs& args) {
  serve::ClassifyParams params;
  params.min_shared_kmers =
      static_cast<u32>(args.get_int("min-shared-kmers", 2));
  params.max_candidates =
      static_cast<std::size_t>(args.get_int("max-candidates", 8));
  params.min_score = static_cast<int>(args.get_int("min-score", 40));
  params.min_score_per_residue = args.get_double("min-score-per-residue", 1.2);
  return params;
}

serve::ServiceConfig config_from(const util::CliArgs& args,
                                 obs::Tracer* tracer) {
  serve::ServiceConfig config;
  config.num_workers = static_cast<std::size_t>(args.get_int("workers", 1));
  config.queue_capacity = static_cast<std::size_t>(args.get_int("queue", 64));
  config.admission.mode =
      fault::parse_resilience_mode(args.get_string("admission", "retry"));
  config.admission.max_retries = static_cast<int>(args.get_int("retries", 3));
  config.admission.retry_backoff_seconds = args.get_double("backoff", 0.001);
  config.profile_cache_capacity =
      static_cast<std::size_t>(args.get_int("cache", 64));
  config.classify = classify_from(args);
  config.seed_index = seed_index_from(args);
  config.bucket = bucket_from(args);
  config.tracer = tracer;
  return config;
}

serve::ShardedConfig sharded_config_from(const util::CliArgs& args,
                                         fault::FaultPlan* plan,
                                         obs::Tracer* tracer) {
  serve::ShardedConfig config;
  config.num_ranks = static_cast<std::size_t>(args.get_int("ranks", 1));
  config.replication =
      static_cast<std::size_t>(args.get_int("replication", 1));
  config.num_workers = static_cast<std::size_t>(args.get_int("workers", 1));
  config.queue_capacity = static_cast<std::size_t>(args.get_int("queue", 64));
  config.resilience.mode =
      fault::parse_resilience_mode(args.get_string("resilience", "fallback"));
  config.resilience.max_retries =
      static_cast<int>(args.get_int("retries", 3));
  config.profile_cache_capacity =
      static_cast<std::size_t>(args.get_int("cache", 64));
  config.classify = classify_from(args);
  config.seed_index = seed_index_from(args);
  config.bucket = bucket_from(args);
  config.fault_plan = plan;
  config.tracer = tracer;
  const auto kill = args.get_string("kill-rank", "");
  if (!kill.empty()) {
    const auto at = kill.find('@');
    GPCLUST_CHECK(at != std::string::npos && at > 0 && at + 1 < kill.size(),
                  "--kill-rank expects R@N (rank @ requests served)");
    config.kill_rank =
        static_cast<std::size_t>(std::stoull(kill.substr(0, at)));
    config.kill_after_requests =
        static_cast<std::size_t>(std::stoull(kill.substr(at + 1)));
  }
  return config;
}

void print_classify(std::FILE* out, const std::string& id,
                    const store::FamilyStore& store,
                    const serve::ClassifyResult& r) {
  const bool assigned = r.outcome == serve::ClassifyOutcome::Assigned;
  std::fprintf(out, "%s\t%s\t%s\t%s\t%d\t%u\n", id.c_str(),
               std::string(serve::classify_outcome_name(r.outcome)).c_str(),
               assigned ? std::to_string(r.family).c_str() : "-",
               r.best_rep != serve::kNoFamily
                   ? std::string(store.id(r.best_rep)).c_str()
                   : "-",
               r.score, r.shared_kmers);
}

void print_result(std::FILE* out, const std::string& id,
                  const store::FamilyStore& store,
                  const serve::QueryOutcome& outcome) {
  if (outcome.rejected != serve::RejectReason::None) {
    std::fprintf(out, "%s\trejected:%s\t-\t-\t-\t-\n", id.c_str(),
                 std::string(serve::reject_reason_name(outcome.rejected))
                     .c_str());
    return;
  }
  print_classify(out, id, store, outcome.result);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gpclust;
  try {
    const util::CliArgs args(argc, argv);
    if (args.has("help")) {
      print_help(stdout);
      return 0;
    }
    const auto index_path = args.get_string("index", "");
    const auto literal = args.get_string("seq", "");
    const auto fasta_path = args.get_string("fasta", "");
    if (index_path.empty() || (literal.empty() && fasta_path.empty())) {
      print_help(stderr);
      return 2;
    }

    // Every flag this invocation uses is read before any work starts, so
    // reject_unknown() can refuse the rest.
    const bool follow_deltas = args.has("follow-deltas");
    const auto trace_out = args.get_string("trace-out", "");
    obs::Tracer tracer;
    obs::Tracer* tracer_ptr = trace_out.empty() ? nullptr : &tracer;
    const bool sharded = args.get_int("ranks", 0) > 0;
    fault::FaultPlan plan;
    std::optional<serve::ShardedConfig> sharded_config;
    std::optional<serve::ServiceConfig> service_config;
    if (sharded) {
      const auto plan_spec = args.get_string("fault-plan", "");
      if (!plan_spec.empty()) plan = fault::FaultPlan::parse(plan_spec);
      sharded_config = sharded_config_from(
          args, plan_spec.empty() ? nullptr : &plan, tracer_ptr);
    } else {
      service_config = config_from(args, tracer_ptr);
    }
    const auto out_path = args.get_string("out", "");
    const double required = args.get_double("require-assigned-fraction", -1.0);
    args.reject_unknown();

    util::WallTimer load_timer;
    store::FamilyStore store;
    u64 chain_length = 0;
    if (follow_deltas) {
      store::DeltaChainTip tip = store::follow_delta_chain(index_path);
      store = std::move(tip.store);
      chain_length = tip.chain_length;
    } else {
      store = store::load_snapshot(index_path);
    }
    std::fprintf(stderr,
                 "loaded %s + %llu delta link(s): %zu sequences, %llu "
                 "families, %zu representatives (k=%llu) in %.2fs\n",
                 index_path.c_str(),
                 static_cast<unsigned long long>(chain_length),
                 store.num_sequences(),
                 static_cast<unsigned long long>(store.num_families),
                 store.representatives.size(),
                 static_cast<unsigned long long>(store.kmer_k),
                 load_timer.seconds());

    std::vector<std::string> ids;
    std::vector<std::string> queries;
    if (!literal.empty()) {
      ids.push_back("query");
      queries.push_back(literal);
    } else {
      for (auto& record : seq::read_fasta(fasta_path)) {
        ids.push_back(std::move(record.id));
        queries.push_back(std::move(record.residues));
      }
    }

    std::vector<serve::QueryOutcome> outcomes;   // single-node path
    std::vector<serve::ClassifyResult> results;  // sharded path
    serve::ShardedStats sharded_stats;
    serve::ServiceStats service_stats;
    obs::Histogram latency;

    util::WallTimer serve_timer;
    if (sharded) {
      results = serve::sharded_classify_batch(store, queries, *sharded_config,
                                              &sharded_stats);
      latency = sharded_stats.latency;
    } else {
      serve::QueryService service(store, *service_config);
      outcomes = service.classify_batch(queries);
      service_stats = service.stats();
      latency = service.latency_histogram();
    }
    const double wall = serve_timer.seconds();

    std::FILE* out = stdout;
    if (!out_path.empty()) {
      out = std::fopen(out_path.c_str(), "w");
      GPCLUST_CHECK(out != nullptr, "cannot open --out file");
    }
    std::fprintf(out, "#id\toutcome\tfamily\trepresentative\tscore\tshared\n");
    std::size_t assigned = 0, rejected = 0;
    if (sharded) {
      for (std::size_t i = 0; i < results.size(); ++i) {
        print_classify(out, ids[i], store, results[i]);
        if (results[i].outcome == serve::ClassifyOutcome::Assigned) ++assigned;
      }
    } else {
      for (std::size_t i = 0; i < outcomes.size(); ++i) {
        print_result(out, ids[i], store, outcomes[i]);
        if (outcomes[i].rejected != serve::RejectReason::None) ++rejected;
        else if (outcomes[i].result.outcome ==
                 serve::ClassifyOutcome::Assigned)
          ++assigned;
      }
    }
    if (out != stdout) {
      std::fclose(out);
      std::fprintf(stderr, "wrote %s\n", out_path.c_str());
    }

    if (sharded) {
      std::fprintf(
          stderr,
          "%zu queries in %.2fs wall (%.0f/s host-measured) over %zu "
          "shards: %zu assigned; %llu shard requests, %llu rank failures, "
          "%llu re-issues, %llu fail-overs; latency %s\n",
          queries.size(), wall,
          wall > 0 ? static_cast<double>(queries.size()) / wall : 0.0,
          sharded_stats.num_shards, assigned,
          static_cast<unsigned long long>(sharded_stats.shard_requests),
          static_cast<unsigned long long>(sharded_stats.rank_failures),
          static_cast<unsigned long long>(sharded_stats.query_reissues),
          static_cast<unsigned long long>(sharded_stats.shard_failovers),
          latency.summary().c_str());
    } else {
      std::fprintf(
          stderr,
          "%zu queries in %.2fs wall (%.0f/s host-measured): "
          "%zu assigned, %zu rejected; profile cache %llu hits / "
          "%llu builds; latency %s\n",
          queries.size(), wall,
          wall > 0 ? static_cast<double>(queries.size()) / wall : 0.0,
          assigned, rejected,
          static_cast<unsigned long long>(service_stats.profile_hits),
          static_cast<unsigned long long>(service_stats.profile_builds),
          latency.summary().c_str());
    }

    if (!trace_out.empty()) {
      obs::write_chrome_trace(tracer, trace_out);
      std::fprintf(stderr, "wrote trace %s (%zu events)\n%s",
                   trace_out.c_str(), tracer.num_events(),
                   tracer.summary().c_str());
    }

    if (required >= 0.0 && !queries.empty()) {
      const double fraction =
          static_cast<double>(assigned) / static_cast<double>(queries.size());
      if (fraction < required) {
        std::fprintf(stderr,
                     "assigned fraction %.3f below required %.3f\n", fraction,
                     required);
        return 3;
      }
    }
    return 0;
  } catch (const store::SnapshotIoError& e) {
    std::fprintf(stderr, "error [snapshot io]: %s\n", e.what());
    return 5;
  } catch (const store::SnapshotError& e) {
    std::fprintf(stderr, "error [snapshot corruption]: %s\n", e.what());
    return 4;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
