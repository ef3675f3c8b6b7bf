#include "robust/faults.h"

#include <cstdlib>

#include "obs/flight.h"
#include "obs/metrics.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace ams::robust {

namespace {

constexpr struct {
  FaultKind kind;
  const char* name;
  const char* key;
} kFaultTable[] = {
    {FaultKind::kNanGrad, "nan_grad", "epoch"},
    {FaultKind::kTaskThrow, "task_throw", "index"},
    {FaultKind::kIoTruncate, "io_truncate", "write"},
    {FaultKind::kTrainCrash, "train_crash", "epoch"},
    {FaultKind::kHpoCrash, "hpo_crash", "trial"},
    {FaultKind::kBitFlipRead, "bit_flip", "read"},
    {FaultKind::kPartialRead, "partial_read", "read"},
    {FaultKind::kConnDropAccept, "conn_drop", "accept"},
    {FaultKind::kTornFrameRead, "torn_frame", "net_read"},
    {FaultKind::kSlowPeerRead, "slow_peer", "net_read"},
    {FaultKind::kConnDropWrite, "conn_drop", "net_write"},
    {FaultKind::kTornScrape, "torn_scrape", "admin"},
    {FaultKind::kSlowBatch, "slow_batch", "serve"},
};

obs::Counter& InjectedCounter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Get().GetCounter("robust/faults_injected");
  return counter;
}

}  // namespace

const char* FaultKindName(FaultKind kind) {
  for (const auto& entry : kFaultTable) {
    if (entry.kind == kind) return entry.name;
  }
  return "?";
}

const char* FaultKindKey(FaultKind kind) {
  for (const auto& entry : kFaultTable) {
    if (entry.kind == kind) return entry.key;
  }
  return "?";
}

Result<std::vector<Fault>> ParseFaultSpec(const std::string& spec) {
  std::vector<Fault> faults;
  // ';' and ',' are interchangeable entry separators.
  std::vector<std::string> entries;
  for (const std::string& seg : SplitString(spec, ';')) {
    for (const std::string& raw : SplitString(seg, ',')) {
      entries.push_back(TrimString(raw));
    }
  }
  for (const std::string& entry : entries) {
    if (entry.empty()) {
      return Status::InvalidArgument("empty entry in fault spec: '" + spec +
                                     "'");
    }
    const size_t at_pos = entry.find('@');
    if (at_pos == std::string::npos) {
      return Status::InvalidArgument("fault entry missing '@': '" + entry +
                                     "'");
    }
    const std::string kind_name = entry.substr(0, at_pos);
    const std::string rest = entry.substr(at_pos + 1);
    const size_t eq_pos = rest.find('=');
    if (eq_pos == std::string::npos) {
      return Status::InvalidArgument("fault entry missing '=': '" + entry +
                                     "'");
    }
    const std::string key = rest.substr(0, eq_pos);
    const std::string value = rest.substr(eq_pos + 1);

    // A kind is identified by its (name, key) pair: `conn_drop` names two
    // distinct injection points, disambiguated by `accept` vs `net_write`.
    Fault fault;
    bool known = false;
    bool matched = false;
    std::string expected_keys;
    for (const auto& table_entry : kFaultTable) {
      if (kind_name != table_entry.name) continue;
      known = true;
      if (!expected_keys.empty()) expected_keys += "' or '";
      expected_keys += table_entry.key;
      if (key == table_entry.key) {
        fault.kind = table_entry.kind;
        matched = true;
        break;
      }
    }
    if (!known) {
      return Status::InvalidArgument("unknown fault kind: '" + kind_name +
                                     "'");
    }
    if (!matched) {
      return Status::InvalidArgument("fault '" + kind_name +
                                     "' expects key '" + expected_keys +
                                     "', got '" + key + "'");
    }
    if (value.empty() ||
        value.find_first_not_of("0123456789") != std::string::npos) {
      return Status::InvalidArgument("fault ordinal must be a non-negative "
                                     "integer: '" +
                                     entry + "'");
    }
    fault.at = std::strtoll(value.c_str(), nullptr, 10);
    faults.push_back(fault);
  }
  return faults;
}

FaultInjector& FaultInjector::Get() {
  static FaultInjector* injector = [] {
    auto* instance = new FaultInjector();
    const char* env = std::getenv("AMS_FAULTS");
    if (env != nullptr && env[0] != '\0') {
      Status status = instance->Configure(env);
      if (!status.ok()) {
        AMS_LOG(Warning) << "ignoring malformed AMS_FAULTS: " << status;
      } else {
        AMS_LOG(Info) << "fault injection armed: " << env;
      }
    }
    return instance;
  }();
  return *injector;
}

Status FaultInjector::Configure(const std::string& spec) {
  AMS_ASSIGN_OR_RETURN(std::vector<Fault> faults, ParseFaultSpec(spec));
  std::lock_guard<std::mutex> lock(mu_);
  faults_.clear();
  for (const Fault& fault : faults) faults_.push_back({fault, false});
  armed_count_.store(static_cast<int64_t>(faults_.size()),
                     std::memory_order_relaxed);
  task_calls_.store(0, std::memory_order_relaxed);
  write_calls_.store(0, std::memory_order_relaxed);
  read_calls_.store(0, std::memory_order_relaxed);
  accept_calls_.store(0, std::memory_order_relaxed);
  net_read_calls_.store(0, std::memory_order_relaxed);
  net_write_calls_.store(0, std::memory_order_relaxed);
  admin_calls_.store(0, std::memory_order_relaxed);
  batch_calls_.store(0, std::memory_order_relaxed);
  return Status::OK();
}

void FaultInjector::Disarm() {
  std::lock_guard<std::mutex> lock(mu_);
  faults_.clear();
  armed_count_.store(0, std::memory_order_relaxed);
  task_calls_.store(0, std::memory_order_relaxed);
  write_calls_.store(0, std::memory_order_relaxed);
  read_calls_.store(0, std::memory_order_relaxed);
  accept_calls_.store(0, std::memory_order_relaxed);
  net_read_calls_.store(0, std::memory_order_relaxed);
  net_write_calls_.store(0, std::memory_order_relaxed);
  admin_calls_.store(0, std::memory_order_relaxed);
  batch_calls_.store(0, std::memory_order_relaxed);
}

bool FaultInjector::Fire(FaultKind kind, int64_t ordinal) {
  if (!AnyArmed()) return false;
  std::lock_guard<std::mutex> lock(mu_);
  for (ArmedFault& armed : faults_) {
    if (armed.fired || armed.fault.kind != kind) continue;
    if (armed.fault.at != ordinal) continue;
    armed.fired = true;
    armed_count_.fetch_sub(1, std::memory_order_relaxed);
    InjectedCounter().Increment();
    obs::MetricsRegistry::Get()
        .GetCounter("robust/faults_injected", {{"kind", FaultKindName(kind)}})
        .Increment();
    AMS_LOG(Warning) << "injecting fault " << FaultKindName(kind) << "@"
                     << FaultKindKey(kind) << "=" << ordinal;
    // Flight-recorder payload: a = ordinal (the AMS_LOG line above also
    // lands in the ring via the warn observer; this event survives even if
    // log capture is off).
    obs::FlightRecorder::Get().Record(
        obs::FlightEventKind::kFault, FaultKindName(kind),
        static_cast<uint64_t>(ordinal), 0);
    return true;
  }
  return false;
}

bool FaultInjector::FireCounted(FaultKind kind,
                                std::atomic<int64_t>* counter) {
  // The ordinal counts every call, armed or not, so "the N-th write" means
  // the same write whether or not other faults are configured.
  const int64_t ordinal = counter->fetch_add(1, std::memory_order_relaxed);
  return Fire(kind, ordinal);
}

FaultInjector::ReadFaults FaultInjector::OnRead() {
  // One shared ordinal for both read kinds, advanced on every call (armed or
  // not) so "the N-th read" is stable across fault configurations.
  const int64_t ordinal = read_calls_.fetch_add(1, std::memory_order_relaxed);
  ReadFaults faults;
  faults.bit_flip = Fire(FaultKind::kBitFlipRead, ordinal);
  faults.partial = Fire(FaultKind::kPartialRead, ordinal);
  return faults;
}

FaultInjector::NetReadFaults FaultInjector::OnNetRead() {
  // One shared ordinal for both net-read kinds, advanced on every call
  // (armed or not) so "the N-th net read" is stable across configurations.
  const int64_t ordinal =
      net_read_calls_.fetch_add(1, std::memory_order_relaxed);
  NetReadFaults faults;
  faults.torn = Fire(FaultKind::kTornFrameRead, ordinal);
  faults.slow = Fire(FaultKind::kSlowPeerRead, ordinal);
  return faults;
}

void FaultInjector::MaybeThrowTask() {
  if (FireCounted(FaultKind::kTaskThrow, &task_calls_)) {
    throw InjectedFault("task_throw");
  }
}

}  // namespace ams::robust
