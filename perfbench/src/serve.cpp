// The daemon workloads: service::ScreenServer configured as screen_serve
// configures it by default (linear {2,1,1}, 64-bit lanes, auto engine,
// 2 ms linger, default admission, journal on), run on its own thread and
// driven by a closed loop of concurrent ScreenClient connections from
// this process.
//
//   serve-small  every request carries a few to a few dozen short DNA
//                pairs, so batching, admission, framing, the journal and
//                linger set the time;
//   serve-bulk   every request is larger than one lane group (hundreds of
//                pairs, n in the thousands), so try_screen compute on the
//                daemon's single thread sets it.
//
// Request ids are unique within a run and every run starts a fresh
// journal, so the daemon's response cache can never serve a request.
#include <pthread.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <map>
#include <optional>
#include <thread>

#include "checks.hpp"
#include "common.hpp"
#include "encoding/batch.hpp"
#include "run_dir.hpp"
#include "service/client.hpp"
#include "service/frame.hpp"
#include "service/journal.hpp"
#include "service/server.hpp"
#include "telemetry/run_report.hpp"
#include "util/cancel.hpp"
#include "util/timer.hpp"

namespace perfbench {

namespace enc = swbpbc::encoding;
namespace svc = swbpbc::service;
namespace tel = swbpbc::telemetry;
namespace util = swbpbc::util;

namespace {

/// One request's pairs; pair k with k % 8 == 0 holds an exact copy of its
/// x inside its y.
struct Body {
  std::vector<enc::Sequence> xs, ys;
  std::vector<std::size_t> planted;
};

/// The request bodies of one serve workload. Sizes are fixed and the seed
/// only draws contents and shuffles their order, so every seed asks for
/// the same work.
///   small: 48 bodies of 4..32 pairs, (m,n) in (16,64), (24,96), (32,128);
///   bulk:  8 bodies of 128..256 pairs, m 32, n 1024 or 1536.
/// Warm-up rounds per connection in set-up: ~1.5 s on serve-small (48
/// requests a round at ~3 ms each), ~2 s on serve-bulk.
constexpr std::size_t kSmallWarmupRounds = 10, kBulkWarmupRounds = 4;

std::vector<Body> make_bodies(std::uint64_t seed, bool bulk) {
  Rng rng(seed * 0xa0761d6478bd642fULL + (bulk ? 7 : 5));
  struct Shape {
    std::size_t m, n;
  };
  constexpr Shape kSmall[] = {{16, 64}, {24, 96}, {32, 128}};
  constexpr Shape kBulk[] = {{32, 1024}, {32, 1536}};
  const std::size_t count = bulk ? 8 : 48;
  const std::size_t min_pairs = bulk ? 128 : 4, max_pairs = bulk ? 256 : 32;
  std::vector<std::size_t> order(count);
  for (std::size_t b = 0; b < count; ++b) order[b] = b;
  for (std::size_t b = count; b > 1; --b) std::swap(order[b - 1], order[rng.below(b)]);
  std::vector<Body> bodies(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t b = order[i];
    const Shape sh = bulk ? kBulk[b % std::size(kBulk)] : kSmall[b % std::size(kSmall)];
    const std::size_t pairs = min_pairs + b * (max_pairs - min_pairs) / (count - 1);
    Body& body = bodies[i];
    for (std::size_t k = 0; k < pairs; ++k) {
      body.xs.push_back(random_dna(rng, sh.m));
      body.ys.push_back(random_dna(rng, sh.n));
      if (k % 8 == 0) {
        const std::size_t at = rng.below(sh.n - sh.m + 1);
        std::copy(body.xs[k].begin(), body.xs[k].end(),
                  body.ys[k].begin() + static_cast<std::ptrdiff_t>(at));
        body.planted.push_back(k);
      }
    }
  }
  return bodies;
}

double body_cells(const Body& b) {
  return static_cast<double>(b.xs.size() * b.xs.front().size() * b.ys.front().size());
}

/// The daemon on its own thread, stopped through its stop token and
/// joined when this object goes away.
class Daemon {
 public:
  Daemon(const std::string& dir, const std::string& tag, tel::Telemetry* telemetry)
      : socket_(dir + "/" + tag + ".sock") {
    svc::ServerConfig config;
    config.socket_path = socket_;
    config.journal_path = dir + "/" + tag + ".journal";
    config.params = {2, 1, 1};
    config.width = swbpbc::sw::LaneWidth::k64;
    config.stop = &stop_;
    config.telemetry = telemetry;
    auto server = svc::ScreenServer::create(std::move(config));
    if (!server.has_value()) {
      status_ = server.status();
      return;
    }
    server_.emplace(std::move(server).value());
    thread_ = std::thread([this] {
      try {
        run_status_ = server_->run();
      } catch (const std::exception& e) {
        run_status_ = util::Status::internal(std::string("daemon threw: ") + e.what());
      }
    });
    pthread_getcpuclockid(thread_.native_handle(), &cpu_clock_);
  }
  ~Daemon() { (void)stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] const util::Status& status() const { return status_; }
  [[nodiscard]] const std::string& socket() const { return socket_; }

  double cpu_seconds() const {
    timespec ts{};
    clock_gettime(cpu_clock_, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
  }

  /// Drains and joins; returns how the serve loop ended.
  util::Status stop() {
    if (thread_.joinable()) {
      stop_.cancel();
      thread_.join();
    }
    return run_status_;
  }

 private:
  std::string socket_;
  util::CancellationToken stop_;
  util::Status status_;
  util::Status run_status_;
  std::optional<svc::ScreenServer> server_;
  clockid_t cpu_clock_{};
  std::thread thread_;
};

svc::ClientConfig client_config(const std::string& socket, std::uint64_t seed,
                                tel::Telemetry* telemetry) {
  svc::ClientConfig config;
  config.socket_path = socket;
  config.backoff.initial_ms = 5.0;
  config.backoff.max_ms = 500.0;
  config.backoff.max_attempts = 10;
  config.backoff_seed = seed;
  config.telemetry = telemetry;
  return config;
}

/// One completed request: when it completed (seconds into the phase),
/// its round trip, its DP cells and its trace id (0 when untraced).
struct Completion {
  double at_s = 0;
  double rtt_ms = 0;
  double cells = 0;
  std::uint64_t trace_id = 0;
};

struct ClientLog {
  std::vector<Completion> done;
  std::map<std::size_t, std::vector<std::uint32_t>> first_scores;  // by body
  std::uint64_t attempted = 0, failed = 0, completed = 0, pairs = 0;
  double cells = 0;
  std::vector<std::string> problems;
};

/// What one load phase measured.
struct Phase {
  double wall_s = 0;
  double daemon_cpu_s = 0;
  std::vector<ClientLog> logs;
  ServeTotals server;
  std::uint64_t batches = 0;
  std::optional<svc::TraceDump> dump;
};

/// Runs the closed loop against `daemon` for `seconds`: each client sends
/// whole rounds (every body once, from its own starting offset) and
/// stops at the first round boundary past the deadline. With `rounds` > 0
/// each client sends exactly that many rounds instead.
Phase run_load(Daemon& daemon, const std::vector<Body>& bodies, const Options& opt,
               const char* tag, double seconds, std::size_t clients,
               tel::Telemetry* client_telemetry, Result& res, std::size_t rounds = 0) {
  Phase phase;
  phase.logs.resize(clients);
  const double cpu0 = daemon.cpu_seconds();
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration<double>(seconds);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      ClientLog& log = phase.logs[c];
      try {
        svc::ScreenClient client(
            client_config(daemon.socket(), opt.seed * 131 + c, client_telemetry));
        std::vector<svc::ScreenRequest> requests(bodies.size());
        for (std::size_t b = 0; b < bodies.size(); ++b) {
          requests[b].tenant = "perfbench";
          requests[b].xs = bodies[b].xs;
          requests[b].ys = bodies[b].ys;
        }
        const std::string prefix = std::string(tag) + "-s" + std::to_string(opt.seed) +
                                   "-c" + std::to_string(c) + "-";
        std::uint64_t sent = 0;
        for (std::size_t round = 0; rounds > 0 ? round < rounds : Clock::now() < deadline;
             ++round) {
          for (std::size_t r = 0; r < bodies.size(); ++r) {
            const std::size_t b = (r + c * bodies.size() / clients) % bodies.size();
            svc::ScreenRequest& request = requests[b];
            request.id = prefix + std::to_string(sent);
            request.trace_id = client_telemetry != nullptr
                                   ? ((static_cast<std::uint64_t>(c) + 1) << 40) | (sent + 1)
                                   : 0;
            ++sent;
            ++log.attempted;
            std::optional<tel::ScopedTraceContext> ctx;
            if (request.trace_id != 0) ctx.emplace(request.trace_id);
            tel::Span span(client_telemetry != nullptr ? client_telemetry->tracer() : nullptr,
                           "perfbench.request", "perfbench", tel::kTrackClient);
            const std::uint64_t t0 = util::monotonic_us();
            auto response = client.screen(request);
            const std::uint64_t rtt_us = util::monotonic_us() - t0;
            span.finish();
            if (!response.has_value() || response->code != util::ErrorCode::kOk) {
              ++log.failed;
              continue;
            }
            ++log.completed;
            log.pairs += request.pair_count();
            log.cells += body_cells(bodies[b]);
            log.done.push_back({ms_since(start) / 1e3, static_cast<double>(rtt_us) / 1e3,
                                body_cells(bodies[b]), request.trace_id});
            auto [it, inserted] = log.first_scores.emplace(b, response->scores);
            if (!inserted)
              for (std::string& f : check_repeat(it->second, response->scores,
                                                 std::string(tag) + " body " +
                                                     std::to_string(b) + " repeat"))
                log.problems.push_back(std::move(f));
          }
        }
      } catch (const std::exception& e) {
        log.problems.push_back(std::string("client threw: ") + e.what());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  phase.wall_s = ms_since(start) / 1e3;
  phase.daemon_cpu_s = daemon.cpu_seconds() - cpu0;

  svc::ScreenClient scraper(client_config(daemon.socket(), opt.seed ^ 0x5c4a9eULL, nullptr));
  auto stats = scraper.stats();
  auto parsed = stats.has_value() ? tel::parse_run_report(*stats)
                                  : util::Expected<tel::RunReport>(stats.status());
  if (!parsed.has_value()) {
    res.fail(std::string(tag) + ": stats scrape failed: " + parsed.status().to_string());
  } else {
    const auto& counters = parsed->metrics.counters;
    auto get = [&](const char* key) {
      const auto it = counters.find(key);
      return it == counters.end() ? std::uint64_t{0} : it->second;
    };
    phase.server = {get("service.completed"), get("service.pairs_scored"),
                    get("service.cache_hits")};
    phase.batches = get("service.batches");
  }
  if (client_telemetry != nullptr) {
    auto dump = scraper.fetch_trace();
    if (dump.has_value())
      phase.dump = std::move(dump).value();
    else
      res.fail(std::string(tag) + ": trace fetch failed: " + dump.status().to_string());
  }
  return phase;
}

/// Folds a phase's client logs into the result and checks every output.
void check_phase(const Phase& phase, const std::vector<Body>& bodies, const Options& opt,
                 const char* tag, Result& res) {
  ServeTotals client;
  std::map<std::size_t, const std::vector<std::uint32_t>*> first;
  for (const ClientLog& log : phase.logs) {
    res.attempted += log.attempted;
    res.failed += log.failed;
    client.completed += log.completed;
    client.pairs_scored += log.pairs;
    res.absorb(log.problems);
    for (const auto& [b, scores] : log.first_scores) {
      auto [it, inserted] = first.emplace(b, &scores);
      if (!inserted)
        res.absorb(check_repeat(*it->second, scores,
                                std::string(tag) + " body " + std::to_string(b) + " across clients"));
    }
  }
  // ScreenClient::stats() is a scrape, not a screen request: the daemon's
  // counters cover exactly the clients' requests.
  res.absorb(check_serve_totals(client, phase.server));
  for (const auto& [b, scores] : first) {
    const Body& body = bodies[b];
    const std::string label = std::string(tag) + " body " + std::to_string(b);
    if (scores->size() != body.xs.size()) {
      res.fail(label + ": wrong score count");
      continue;
    }
    std::vector<ScoredPair> pairs;
    for (const std::size_t k : sample_indices(opt.seed ^ (0x5e7 + b), body.xs.size(), 8))
      pairs.push_back({k, (*scores)[k]});
    res.absorb(check_dna_reference(body.xs, body.ys, pairs, label));
    const auto m = static_cast<std::uint32_t>(body.xs.front().size());
    res.absorb(check_bounds(*scores, body.planted, 2 * m, 2 * m, label));
  }
}

/// End-to-end figures of a load phase.
struct ServeFigures {
  double gcups = 0, latency_p50_ms = 0, requests_per_s = 0, fast_share = 0;
};

std::vector<double> all_rtts(const Phase& phase) {
  std::vector<double> rtt;
  for (const ClientLog& log : phase.logs)
    for (const Completion& c : log.done) rtt.push_back(c.rtt_ms);
  return rtt;
}

double phase_gcups(const Phase& phase) {
  double cells = 0;
  for (const ClientLog& log : phase.logs) cells += log.cells;
  return cells / (phase.wall_s * 1e9);
}

/// serve-small: every request of the phase over its whole wall time. The
/// linger-bound small-request path does not follow the host's speed
/// regimes, so nothing is cut.
ServeFigures whole_phase_figures(const Phase& phase) {
  ServeFigures f;
  double completed = 0;
  for (const ClientLog& log : phase.logs) completed += static_cast<double>(log.completed);
  f.gcups = phase_gcups(phase);
  f.requests_per_s = completed / phase.wall_s;
  f.latency_p50_ms = median(all_rtts(phase));
  f.fast_share = 1.0;
  return f;
}

/// serve-bulk: compute-bound, so taken in the host's fast speed regime
/// like the library workloads' (see fast_regime). The daemon computes one
/// request at a time and the closed loop keeps it busy, so the work done
/// between two completions is exactly the cells of the requests completed
/// in between. The completions up to the deadline are cut into chunks of
/// kChunk consecutive ones; the chunks whose cells per second are within
/// 20% of the 95th-percentile chunk count as fast, and every figure is
/// taken over the requests completed in them. The share of fast chunks is
/// reported per layer (`bench.fast_share`).
ServeFigures fast_chunk_figures(const Phase& phase, double seconds) {
  constexpr std::size_t kChunk = 8;
  std::vector<const Completion*> done;
  for (const ClientLog& log : phase.logs)
    for (const Completion& c : log.done)
      if (c.at_s <= seconds) done.push_back(&c);
  std::sort(done.begin(), done.end(),
            [](const Completion* x, const Completion* y) { return x->at_s < y->at_s; });
  const std::size_t chunks = done.empty() ? 0 : (done.size() - 1) / kChunk;
  std::vector<double> rate(chunks);
  for (std::size_t j = 0; j < chunks; ++j) {
    double cells = 0;
    for (std::size_t i = j * kChunk + 1; i <= (j + 1) * kChunk; ++i) cells += done[i]->cells;
    rate[j] = cells / (done[(j + 1) * kChunk]->at_s - done[j * kChunk]->at_s);
  }
  const double cut = quantile(rate, 0.95) / 1.2;

  ServeFigures f;
  double fast_cells = 0, fast_count = 0, fast_s = 0;
  std::size_t fast = 0;
  std::vector<double> fast_rtts;
  for (std::size_t j = 0; j < chunks; ++j) {
    if (rate[j] < cut) continue;
    ++fast;
    fast_s += done[(j + 1) * kChunk]->at_s - done[j * kChunk]->at_s;
    for (std::size_t i = j * kChunk + 1; i <= (j + 1) * kChunk; ++i) {
      fast_cells += done[i]->cells;
      fast_count += 1;
      fast_rtts.push_back(done[i]->rtt_ms);
    }
  }
  f.gcups = fast_cells / (fast_s * 1e9);
  f.requests_per_s = fast_count / fast_s;
  f.latency_p50_ms = median(fast_rtts);
  f.fast_share = chunks == 0 ? 0.0 : static_cast<double>(fast) / static_cast<double>(chunks);
  return f;
}

/// Median microseconds of `fn` over `reps` calls.
template <typename Fn>
double median_us(std::size_t reps, Fn&& fn) {
  std::vector<double> us;
  for (std::size_t r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    fn(r);
    us.push_back(ms_since(t0) * 1e3);
  }
  return median(us);
}

/// Per-layer figures of the traced phase `b` (the untraced phase `a`
/// supplies the batching and daemon-CPU figures and the overhead base).
void layer_metrics(const Phase& a, const Phase& b, const std::vector<Body>& bodies,
                   const std::string& dir, double fast_share, Result& res) {
  // Layer calls timed apart, on the workload's own request bodies.
  std::vector<svc::ScreenRequest> requests(bodies.size());
  std::vector<std::vector<std::uint8_t>> frames(bodies.size());
  for (std::size_t i = 0; i < bodies.size(); ++i) {
    requests[i].id = "layer-" + std::to_string(i);
    requests[i].tenant = "perfbench";
    requests[i].xs = bodies[i].xs;
    requests[i].ys = bodies[i].ys;
    frames[i] = svc::encode_frame(svc::FrameType::kScreenRequest, svc::encode_request(requests[i]));
  }
  const std::size_t reps = 4 * bodies.size();
  const double encode_us = median_us(reps, [&](std::size_t r) {
    const auto& req = requests[r % requests.size()];
    if (svc::encode_frame(svc::FrameType::kScreenRequest, svc::encode_request(req)).empty())
      res.fail("encode produced no bytes");
  });
  const double decode_us = median_us(reps, [&](std::size_t r) {
    svc::FrameDecoder decoder;
    decoder.feed(frames[r % frames.size()]);
    auto frame = decoder.next();
    if (!frame.has_value() || !frame->has_value() || !svc::decode_request((*frame)->payload).has_value())
      res.fail("decode of an encoded request failed");
  });
  double journal_us = 0;
  if (auto journal = svc::RequestJournal::open(dir + "/scratch.journal", 1); journal.has_value()) {
    journal_us = median_us(reps, [&](std::size_t r) {
      svc::ScreenRequest req = requests[r % requests.size()];
      svc::ScreenResponse resp;
      resp.id = req.id = "journal-" + std::to_string(r);
      resp.scores.assign(req.xs.size(), 1);
      if (!journal->record_admitted(req).ok() || !journal->record_completed(resp).ok())
        res.fail("scratch journal append failed");
    });
  } else {
    res.fail("scratch journal: " + journal.status().to_string());
  }
  const double w2b_us = median_us(reps, [&](std::size_t r) {
    const auto batch = enc::transpose_strings<std::uint64_t>(bodies[r % bodies.size()].ys);
    if (batch.count != bodies[r % bodies.size()].ys.size()) res.fail("transpose lost strings");
  });

  // The daemon's own spans, matched to the client's round trips by trace
  // id; a batch's `screen` span is the first one starting at or after its
  // requests' queue wait ends (the daemon runs one batch at a time).
  std::vector<double> admit_us, queue_ms, screen_ms, unattributed_ms;
  struct Spans {
    std::uint64_t admit = 0, queue_end = 0, queue = 0;
    bool has_admit = false, has_queue = false;
  };
  std::map<std::uint64_t, Spans> by_trace;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> screens;  // ts, dur
  if (b.dump.has_value()) {
    for (const svc::TraceDump::Event& e : b.dump->events) {
      if (e.name == "admit") {
        admit_us.push_back(static_cast<double>(e.dur_us));
        by_trace[e.trace_id].admit = e.dur_us;
        by_trace[e.trace_id].has_admit = true;
      } else if (e.name == "queue.wait") {
        queue_ms.push_back(static_cast<double>(e.dur_us) / 1e3);
        Spans& s = by_trace[e.trace_id];
        s.queue = e.dur_us;
        s.queue_end = e.ts_us + e.dur_us;
        s.has_queue = true;
      } else if (e.name == "screen") {
        screens.push_back({e.ts_us, e.dur_us});
        screen_ms.push_back(static_cast<double>(e.dur_us) / 1e3);
      }
    }
  }
  std::sort(screens.begin(), screens.end());
  std::vector<double> rtt_ms;
  for (const ClientLog& log : b.logs) {
    for (const Completion& c : log.done) {
      rtt_ms.push_back(c.rtt_ms);
      const auto it = by_trace.find(c.trace_id);
      if (it == by_trace.end() || !it->second.has_admit || !it->second.has_queue) continue;
      const auto sc = std::lower_bound(screens.begin(), screens.end(),
                                       std::make_pair(it->second.queue_end, std::uint64_t{0}));
      if (sc == screens.end()) continue;
      const double inside = static_cast<double>(it->second.admit + it->second.queue + sc->second);
      unattributed_ms.push_back(c.rtt_ms - inside / 1e3);
    }
  }

  res.metric("service.encode_us", encode_us, "us");
  res.metric("service.decode_us", decode_us, "us");
  res.metric("service.journal_append_us", journal_us, "us");
  res.metric("service.admit_us", median(admit_us), "us");
  res.metric("service.batch_pairs",
             a.batches == 0 ? 0.0
                            : static_cast<double>(a.server.pairs_scored) /
                                  static_cast<double>(a.batches),
             "pairs");
  res.metric("service.queue_wait_ms", median(queue_ms), "ms");
  res.metric("service.latency_p99_ms", quantile(all_rtts(a), 0.99), "ms");
  res.metric("service.client_rtt_ms", median(rtt_ms), "ms");
  res.metric("service.unattributed_ms", median(unattributed_ms), "ms");
  res.metric("service.compute_ms", median(screen_ms), "ms");
  res.metric("service.cpu_per_wall", a.daemon_cpu_s / a.wall_s, "ratio");
  res.metric("encoding.w2b_ms", w2b_us / 1e3, "ms");
  res.metric("trace.overhead", phase_gcups(a) / phase_gcups(b), "ratio");
  res.metric("bench.fast_share", fast_share, "ratio");
  std::printf("traced phase: %zu of %zu round trips matched to daemon spans\n",
              unattributed_ms.size(), rtt_ms.size());
}

Result run_serve(const Options& opt, bool bulk) {
  Result res;
  const char* name = bulk ? "serve-bulk" : "serve-small";
  const std::size_t clients = std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
  RunDir dir;
  const std::vector<Body> bodies = make_bodies(opt.seed, bulk);

  // Untraced: the end-to-end figures (in a traced run, the first half,
  // which gives the tracing-overhead base).
  Phase a;
  double fast_share = 1.0;
  double cold_ms = 0;  // to the daemon's first pong: the cold part of set-up
  {
    Daemon daemon(dir.path(), "a", nullptr);
    if (!daemon.status().ok()) {
      res.fail(std::string("daemon start: ") + daemon.status().to_string());
      return res;
    }
    svc::ScreenClient probe(client_config(daemon.socket(), opt.seed, nullptr));
    if (util::Status s = probe.wait_ready(); !s.ok()) {
      res.fail("daemon never became ready: " + s.to_string());
      return res;
    }
    cold_ms = 1e3 * seconds_since_start();
    // Set-up ends after a fixed warm-up of whole rounds per connection,
    // checked like the load phase; the load phase's daemon totals are
    // taken net of it. As in the library workloads (kDnaWarmupRounds),
    // a set-up of a millisecond would land in one speed regime.
    const Phase warm = run_load(daemon, bodies, opt, "w", 0, clients, nullptr, res,
                                bulk ? kBulkWarmupRounds : kSmallWarmupRounds);
    check_phase(warm, bodies, opt, "warm-up", res);
    const double setup_s = seconds_since_start();
    a = run_load(daemon, bodies, opt, "a", opt.trace ? opt.seconds / 2 : opt.seconds, clients,
                 nullptr, res);
    if (util::Status s = daemon.stop(); !s.ok()) res.fail("daemon run: " + s.to_string());
    a.server.completed -= warm.server.completed;
    a.server.pairs_scored -= warm.server.pairs_scored;
    a.server.cache_hits -= warm.server.cache_hits;
    a.batches -= warm.batches;
    check_phase(a, bodies, opt, "a", res);
    const ServeFigures fig = bulk ? fast_chunk_figures(a, opt.trace ? opt.seconds / 2 : opt.seconds)
                                  : whole_phase_figures(a);
    fast_share = fig.fast_share;
    std::printf("%s: %zu clients, %zu requests in %.2f s, %llu batches, "
                "figures over %.0f%% of the run\n",
                name, clients, all_rtts(a).size(), a.wall_s,
                static_cast<unsigned long long>(a.batches), 100.0 * fig.fast_share);
    if (!opt.trace) {
      res.metric("setup_s", setup_s, "s");
      res.metric("gcups", fig.gcups, "GCUPS");
      res.metric("latency_p50_ms", fig.latency_p50_ms, "ms");
      res.metric("requests_per_s", fig.requests_per_s, "req/s");
      res.metric("peak_rss_mb", peak_rss_mb(), "MB");
      return res;
    }
  }

  // Traced: daemon telemetry on, client spans on, same loop.
  tel::TelemetryConfig tcfg;
  tcfg.enabled = true;
  tel::Telemetry server_session(tcfg), client_session(tcfg);
  client_session.tracer()->set_track_name(tel::kTrackClient, "client");
  Phase b;
  {
    Daemon daemon(dir.path(), "b", server_session.sink());
    if (!daemon.status().ok()) {
      res.fail(std::string("daemon start: ") + daemon.status().to_string());
      return res;
    }
    svc::ScreenClient probe(client_config(daemon.socket(), opt.seed, nullptr));
    if (util::Status s = probe.wait_ready(); !s.ok()) {
      res.fail("daemon never became ready: " + s.to_string());
      return res;
    }
    b = run_load(daemon, bodies, opt, "b", opt.seconds / 2, clients, client_session.sink(), res);
    if (util::Status s = daemon.stop(); !s.ok()) res.fail("daemon run: " + s.to_string());
  }
  check_phase(b, bodies, opt, "b", res);
  layer_metrics(a, b, bodies, dir.path(), fast_share, res);
  res.metric("setup.cold_ms", cold_ms, "ms");

  // One merged trace: the client session plus the daemon's ring. The
  // tracer borrows the dump's strings, so the dump outlives the write.
  if (b.dump.has_value()) {
    tel::Tracer* tracer = client_session.tracer();
    for (const auto& [track, track_name] : b.dump->tracks) tracer->set_track_name(track, track_name);
    for (const svc::TraceDump::Event& e : b.dump->events) {
      tel::TraceEvent ev;
      ev.name = e.name.c_str();
      ev.cat = e.cat.c_str();
      ev.ts_us = e.ts_us;
      ev.dur_us = e.dur_us;
      ev.track = e.track;
      ev.trace_id = e.trace_id;
      for (std::size_t i = 0; i < e.args.size() && i < 2; ++i) {
        ev.arg_names[i] = e.args[i].first.c_str();
        ev.arg_values[i] = e.args[i].second;
      }
      tracer->record(ev);
    }
  }
  write_trace(opt, client_session);
  return res;
}

}  // namespace

Result run_serve_small(const Options& opt) { return run_serve(opt, false); }
Result run_serve_bulk(const Options& opt) { return run_serve(opt, true); }

}  // namespace perfbench
