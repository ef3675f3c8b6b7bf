// Deterministic fault injection for exercising the recovery paths in CI.
//
// Faults are armed from the AMS_FAULTS environment variable (or
// programmatically in tests) using a small grammar:
//
//   AMS_FAULTS="nan_grad@epoch=3;task_throw@index=7;io_truncate@write=2"
//
// Each entry is `<kind>@<key>=<ordinal>` and fires exactly once, at the
// matching point of the process's execution:
//
//   nan_grad@epoch=N     corrupt a gradient in the N-th guarded training
//                        epoch (see robust::TrainGuard)
//   task_throw@index=N   throw InjectedFault from the N-th retry-wrapped
//                        task entry (see robust::RunWithRetry)
//   io_truncate@write=N  truncate the payload of the N-th atomic file
//                        write (see robust::AtomicWriteFile)
//   train_crash@epoch=N  abort AMS training right after epoch N commits
//                        (and after its checkpoint is saved)
//   hpo_crash@trial=N    abort RandomSearch after N trials have completed
//                        and been checkpointed
//   bit_flip@read=N      flip one payload bit in the N-th verified file
//                        read (see robust::ReadFileVerified) — the CRC
//                        footer must catch it
//   partial_read@read=N  drop the second half of the N-th verified file
//                        read, simulating a short read / torn page
//
// Network-path kinds, fired inside serve::NetServer's accept/read/write
// loops (the kind is resolved by its name *and* key, so `conn_drop` names
// two distinct injection points):
//
//   conn_drop@accept=N     close the N-th accepted connection immediately,
//                          before any frame is read
//   torn_frame@net_read=N  truncate the N-th network frame read mid-frame
//                          (the decoder must reject the torn bytes)
//   slow_peer@net_read=N   stall the N-th network frame read (a dribbling
//                          client), long enough to expire tight deadlines
//   conn_drop@net_write=N  close the connection instead of performing the
//                          N-th response write (client sees EOF and must
//                          retry)
//   torn_scrape@admin=N    truncate the N-th admin-plane response halfway
//                          and hang up (obs::AdminServer; scrapers must
//                          treat short reads as failed scrapes)
//
// Serving kind, fired by serve::InferenceServer's batcher:
//
//   slow_batch@serve=N     stall the N-th batch after it leaves the
//                          admission queue, holding the batcher busy while
//                          the queue fills (or its deadlines expire)
//
// Ordinals are deterministic given single-run determinism of the call
// sites: epoch/trial ordinals are supplied by the caller, while
// task/write/accept/net/batch ordinals count process-wide calls in order.
// Every injected fault bumps the `robust/faults_injected` counter so a run
// that silently recovered is still visible in AMS_TELEMETRY reports. Entries
// may be separated by ';' or ',' (the latter nests more easily inside
// other comma-free env grammars).
#ifndef AMS_ROBUST_FAULTS_H_
#define AMS_ROBUST_FAULTS_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/status.h"

namespace ams::robust {

enum class FaultKind {
  kNanGrad,
  kTaskThrow,
  kIoTruncate,
  kTrainCrash,
  kHpoCrash,
  kBitFlipRead,
  kPartialRead,
  kConnDropAccept,
  kTornFrameRead,
  kSlowPeerRead,
  kConnDropWrite,
  kTornScrape,
  kSlowBatch,
};

/// The key each kind expects after the '@'; used for parse validation and
/// error messages.
const char* FaultKindName(FaultKind kind);
const char* FaultKindKey(FaultKind kind);

struct Fault {
  FaultKind kind = FaultKind::kNanGrad;
  int64_t at = 0;
};

/// Parses the AMS_FAULTS grammar. Rejects unknown kinds, wrong keys,
/// missing '@'/'=', non-numeric or negative ordinals, and empty entries.
Result<std::vector<Fault>> ParseFaultSpec(const std::string& spec);

/// Exception thrown by injected task faults (distinguishable from genuine
/// task exceptions in logs by its message prefix).
class InjectedFault : public std::runtime_error {
 public:
  explicit InjectedFault(const std::string& what)
      : std::runtime_error("injected fault: " + what) {}
};

/// Process-wide injector. Thread-safe; each armed fault fires at most once.
class FaultInjector {
 public:
  /// Lazily initialized from AMS_FAULTS on first access. A malformed spec
  /// disables injection with a warning rather than failing the run.
  static FaultInjector& Get();

  /// Replaces the armed fault set (tests). Resets call counters.
  Status Configure(const std::string& spec);

  /// Clears all armed faults and counters (tests).
  void Disarm();

  /// True when any fault of any kind is still armed (cheap pre-check for
  /// hot loops).
  bool AnyArmed() const { return armed_count_.load(std::memory_order_relaxed) > 0; }

  // Query points, one per fault kind. Epoch/trial ordinals are supplied by
  // the caller; task/write ordinals are process-wide call counts.
  bool ShouldCorruptGradient(int64_t epoch) { return Fire(FaultKind::kNanGrad, epoch); }
  bool ShouldTruncateWrite() { return FireCounted(FaultKind::kIoTruncate, &write_calls_); }

  /// Read-side faults fired at one shared process-wide read ordinal, so
  /// "the N-th read" means the same read for both kinds.
  struct ReadFaults {
    bool bit_flip = false;
    bool partial = false;
  };
  /// Called once per verified file read (robust::ReadFileVerified /
  /// ReadFileLenient); always advances the read ordinal.
  ReadFaults OnRead();

  bool ShouldCrashTraining(int64_t epoch) { return Fire(FaultKind::kTrainCrash, epoch); }
  bool ShouldCrashHpo(int64_t completed_trials) {
    return Fire(FaultKind::kHpoCrash, completed_trials);
  }

  /// Called once per accepted network connection; true = drop it on the
  /// floor before reading anything (conn_drop@accept).
  bool OnAccept() { return FireCounted(FaultKind::kConnDropAccept, &accept_calls_); }

  /// Network read faults fired at one shared process-wide frame-read
  /// ordinal, so "the N-th net read" means the same frame for both kinds.
  struct NetReadFaults {
    bool torn = false;
    bool slow = false;
  };
  /// Called once per network frame read in the server's read loop; always
  /// advances the net-read ordinal.
  NetReadFaults OnNetRead();

  /// Called once per response write in the server's write path; true =
  /// drop the connection instead of writing (conn_drop@net_write).
  bool OnNetWrite() { return FireCounted(FaultKind::kConnDropWrite, &net_write_calls_); }

  /// Called once per admin-plane response write (the serve layer installs
  /// this as obs::AdminServer's write-fault hook); true = tear the scrape
  /// (torn_scrape@admin).
  bool OnAdminScrape() { return FireCounted(FaultKind::kTornScrape, &admin_calls_); }

  /// Called once per batch the serving batcher takes off its queue; true =
  /// stall that batch (slow_batch@serve).
  bool OnServeBatch() { return FireCounted(FaultKind::kSlowBatch, &batch_calls_); }

  /// Throws InjectedFault when a task_throw fault matches this (process-wide
  /// ordinal-counted) task entry.
  void MaybeThrowTask();

 private:
  FaultInjector() = default;

  struct ArmedFault {
    Fault fault;
    bool fired = false;
  };

  bool Fire(FaultKind kind, int64_t ordinal);
  bool FireCounted(FaultKind kind, std::atomic<int64_t>* counter);

  mutable std::mutex mu_;
  std::vector<ArmedFault> faults_;
  std::atomic<int64_t> armed_count_{0};
  std::atomic<int64_t> task_calls_{0};
  std::atomic<int64_t> write_calls_{0};
  std::atomic<int64_t> read_calls_{0};
  std::atomic<int64_t> accept_calls_{0};
  std::atomic<int64_t> net_read_calls_{0};
  std::atomic<int64_t> net_write_calls_{0};
  std::atomic<int64_t> admin_calls_{0};
  std::atomic<int64_t> batch_calls_{0};
};

}  // namespace ams::robust

#endif  // AMS_ROBUST_FAULTS_H_
