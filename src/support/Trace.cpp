//===- support/Trace.cpp - Structured decision tracing ---------------------===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "support/Trace.h"

#include "support/Clock.h"
#include "support/Json.h"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <ostream>

using namespace dope;

//===----------------------------------------------------------------------===//
// Kind names
//===----------------------------------------------------------------------===//

static constexpr const char *KindNames[] = {
    "feature",  "feature-read", "decision",    "queue",
    "begin",    "end",          "wait",        "reconfig",
    "fault",    "log",          "counter",     "lease-grant",
    "lease-revoke", "tenant-utility", "lease-expire", "heartbeat",
    "compliance"};

const char *dope::toString(TraceKind Kind) {
  return KindNames[static_cast<size_t>(Kind)];
}

std::optional<TraceKind> dope::traceKindFromString(std::string_view Name) {
  for (size_t I = 0; I != std::size(KindNames); ++I)
    if (Name == KindNames[I])
      return static_cast<TraceKind>(I);
  return std::nullopt;
}

//===----------------------------------------------------------------------===//
// Tracer
//===----------------------------------------------------------------------===//

/// One thread's ring. The writing thread and drain() synchronize on the
/// per-buffer mutex; writers of different threads never share a buffer,
/// so the lock is uncontended outside drains.
struct Tracer::ThreadBuffer {
  explicit ThreadBuffer(uint32_t Tid) : Tid(Tid) {}

  std::mutex Mutex;
  const uint32_t Tid;
  std::vector<TraceRecord> Ring DOPE_GUARDED_BY(Mutex);
  // Oldest record once the ring wrapped.
  size_t Head DOPE_GUARDED_BY(Mutex) = 0;
  uint64_t Written DOPE_GUARDED_BY(Mutex) = 0;
  uint64_t Dropped DOPE_GUARDED_BY(Mutex) = 0;
};

namespace {

/// Thread-local association of tracer id -> buffer. Ids are process
/// unique and never reused, so a stale slot of a destroyed tracer can
/// never be mistaken for a live one; Alive expires with the tracer, so
/// the next lookup miss can drop the slot. The buffer is stored untyped
/// because ThreadBuffer is private to Tracer.
struct TlsSlot {
  uint64_t TracerId;
  void *Buf;
  std::weak_ptr<const void> Alive;
};

thread_local std::vector<TlsSlot> TlsSlots;

std::atomic<uint64_t> NextTracerId{1};
std::atomic<Tracer *> ActiveTracer{nullptr};

} // namespace

Tracer::Tracer(size_t CapacityPerThread)
    : Capacity(std::max<size_t>(16, CapacityPerThread)),
      Id(NextTracerId.fetch_add(1, std::memory_order_relaxed)),
      Alive(std::make_shared<char>()) {}

Tracer::~Tracer() {
  Tracer *Self = this;
  ActiveTracer.compare_exchange_strong(Self, nullptr,
                                       std::memory_order_acq_rel);
}

Tracer *Tracer::active() {
  return ActiveTracer.load(std::memory_order_acquire);
}

void Tracer::setActive(Tracer *T) {
  ActiveTracer.store(T, std::memory_order_release);
}

void Tracer::setClock(std::function<double()> NewClock) {
  std::lock_guard<std::mutex> Lock(ClockMutex);
  Clock = std::move(NewClock);
}

double Tracer::now() const {
  {
    std::lock_guard<std::mutex> Lock(ClockMutex);
    if (Clock)
      return Clock();
  }
  // Default clock domain: the process-wide monotonic origin every other
  // native component stamps with (support/Clock.h) — not a raw
  // steady_clock read, which the determinism lint (DL001) forbids
  // outside the Clock abstraction.
  return monotonicSeconds();
}

Tracer::ThreadBuffer &Tracer::buffer() {
  for (const TlsSlot &Slot : TlsSlots)
    if (Slot.TracerId == Id)
      return *static_cast<ThreadBuffer *>(Slot.Buf);
  // A thread that outlives many tracers would otherwise scan one dead
  // slot per tracer on every record.
  std::erase_if(TlsSlots,
                [](const TlsSlot &Slot) { return Slot.Alive.expired(); });
  std::lock_guard<std::mutex> Lock(RegistryMutex);
  Buffers.push_back(
      std::make_unique<ThreadBuffer>(static_cast<uint32_t>(Buffers.size())));
  ThreadBuffer *Buf = Buffers.back().get();
  TlsSlots.push_back({Id, Buf, Alive});
  return *Buf;
}

void Tracer::append(ThreadBuffer &Buf, TraceRecord R) {
  std::lock_guard<std::mutex> Lock(Buf.Mutex);
  R.Tid = Buf.Tid;
  ++Buf.Written;
  if (Buf.Ring.size() < Capacity) {
    Buf.Ring.push_back(std::move(R));
    return;
  }
  Buf.Ring[Buf.Head] = std::move(R);
  Buf.Head = (Buf.Head + 1) % Capacity;
  ++Buf.Dropped;
}

DOPE_HOT void Tracer::record(TraceKind Kind, std::string_view Name, double A,
                             double B, std::string Detail) {
  // Tracing is a diagnostic facility, not a control path: the clock mutex
  // below is uncontended except while a test swaps the clock in.
  // dope-lint: allow(HP004)
  recordAt(now(), Kind, Name, A, B, std::move(Detail));
}

DOPE_HOT void Tracer::recordAt(double Time, TraceKind Kind,
                               std::string_view Name, double A, double B,
                               std::string Detail) {
  TraceRecord R;
  R.Time = Time;
  R.Kind = Kind;
  R.Name.assign(Name);
  R.A = A;
  R.B = B;
  R.Detail = std::move(Detail);
  // The buffer mutex is per-thread (never contended in steady state) and
  // the registry mutex is only taken on a thread's first record; keeping
  // them is the tracer's documented bounded-overhead trade-off.
  // dope-lint: allow(HP004)
  append(buffer(), std::move(R));
}

std::vector<TraceRecord> Tracer::drain() {
  std::vector<TraceRecord> Out;
  std::lock_guard<std::mutex> Lock(RegistryMutex);
  for (const std::unique_ptr<ThreadBuffer> &Buf : Buffers) {
    std::lock_guard<std::mutex> BufLock(Buf->Mutex);
    // Chronological ring order: from the oldest (Head) around.
    for (size_t I = 0; I != Buf->Ring.size(); ++I)
      Out.push_back(
          std::move(Buf->Ring[(Buf->Head + I) % Buf->Ring.size()]));
    Buf->Ring.clear();
    Buf->Head = 0;
  }
  std::stable_sort(Out.begin(), Out.end(),
                   [](const TraceRecord &L, const TraceRecord &R) {
                     return L.Time < R.Time;
                   });
  return Out;
}

void dope::canonicalizeTrace(std::vector<TraceRecord> &Records) {
  std::sort(Records.begin(), Records.end(),
            [](const TraceRecord &L, const TraceRecord &R) {
              if (L.Time != R.Time)
                return L.Time < R.Time;
              if (L.Kind != R.Kind)
                return static_cast<int>(L.Kind) < static_cast<int>(R.Kind);
              if (int C = L.Name.compare(R.Name))
                return C < 0;
              if (L.A != R.A)
                return L.A < R.A;
              if (L.B != R.B)
                return L.B < R.B;
              return L.Detail < R.Detail;
            });
}

uint64_t Tracer::droppedRecords() const {
  auto *Self = const_cast<Tracer *>(this);
  std::lock_guard<std::mutex> Lock(Self->RegistryMutex);
  uint64_t Total = 0;
  for (const std::unique_ptr<ThreadBuffer> &Buf : Self->Buffers) {
    std::lock_guard<std::mutex> BufLock(Buf->Mutex);
    Total += Buf->Dropped;
  }
  return Total;
}

uint64_t Tracer::recordedTotal() const {
  auto *Self = const_cast<Tracer *>(this);
  std::lock_guard<std::mutex> Lock(Self->RegistryMutex);
  uint64_t Total = 0;
  for (const std::unique_ptr<ThreadBuffer> &Buf : Self->Buffers) {
    std::lock_guard<std::mutex> BufLock(Buf->Mutex);
    Total += Buf->Written;
  }
  return Total;
}

//===----------------------------------------------------------------------===//
// Exporters
//===----------------------------------------------------------------------===//

/// Exporters append into one buffer and hand it to the stream in large
/// chunks: per-record ostream << calls dominated export time at trace
/// sizes the figure harnesses produce. The JSON bytes are built with
/// JsonValue::appendNumber / escapeTo, so output is identical to the
/// JsonValue-based writer the goldens were recorded with.
static constexpr size_t FlushChunkBytes = 1 << 16;

static void flushBuffer(std::string &Buf, std::ostream &OS, bool Force) {
  if (Buf.empty() || (!Force && Buf.size() < FlushChunkBytes))
    return;
  OS.write(Buf.data(), static_cast<std::streamsize>(Buf.size()));
  Buf.clear();
}

void dope::writeTraceJsonl(const std::vector<TraceRecord> &Records,
                           std::ostream &OS) {
  std::string Buf;
  Buf.reserve(FlushChunkBytes + 1024);
  for (const TraceRecord &R : Records) {
    Buf += "{\"t\":";
    JsonValue::appendNumber(Buf, R.Time);
    Buf += ",\"kind\":\"";
    Buf += toString(R.Kind);
    Buf += "\",\"tid\":";
    JsonValue::appendNumber(Buf, static_cast<double>(R.Tid));
    Buf += ",\"name\":\"";
    JsonValue::escapeTo(Buf, R.Name);
    Buf += '"';
    if (R.A != 0.0) {
      Buf += ",\"a\":";
      JsonValue::appendNumber(Buf, R.A);
    }
    if (R.B != 0.0) {
      Buf += ",\"b\":";
      JsonValue::appendNumber(Buf, R.B);
    }
    if (!R.Detail.empty()) {
      Buf += ",\"detail\":\"";
      JsonValue::escapeTo(Buf, R.Detail);
      Buf += '"';
    }
    Buf += "}\n";
    flushBuffer(Buf, OS, /*Force=*/false);
  }
  flushBuffer(Buf, OS, /*Force=*/true);
}

namespace {

/// A cursor over one line in the exact layout writeTraceJsonl emits. Each
/// method consumes one token and returns false, consuming nothing, on any
/// byte that departs from that layout; the caller then falls back to the
/// general JSON parse.
struct WriterLayout {
  const char *P;
  const char *End;

  bool literal(std::string_view S) {
    if (static_cast<size_t>(End - P) < S.size() ||
        std::memcmp(P, S.data(), S.size()) != 0)
      return false;
    P += S.size();
    return true;
  }

  /// A decimal number, parsed with strtod: the function JsonValue::parse
  /// uses, so the bits (NaN payloads, overflow to inf, subnormals) are
  /// the fallback's by construction. The line must be NUL-terminated at
  /// End, which bounds strtod. Only a digit may follow the optional sign.
  /// (Not from_chars: libc++ before LLVM 20 has no floating-point one.)
  bool number(double &Out) {
    const char *Digit = P != End && *P == '-' ? P + 1 : P;
    if (Digit == End || *Digit < '0' || *Digit > '9')
      return false;
    char *Next = nullptr;
    Out = std::strtod(P, &Next);
    P = Next;
    return true;
  }

  /// A decimal integer in [0, 2^32), parsed in place; anything else,
  /// including a sign, is a departure.
  bool number(uint32_t &Out) {
    const auto [Next, Ec] = std::from_chars(P, End, Out);
    if (Ec != std::errc())
      return false;
    P = Next;
    return true;
  }

  /// The rest of a string whose opening quote was consumed, as a view;
  /// an escape anywhere in it is a departure.
  bool string(std::string_view &Out) {
    const auto *Quote = static_cast<const char *>(
        std::memchr(P, '"', static_cast<size_t>(End - P)));
    if (!Quote || std::memchr(P, '\\', static_cast<size_t>(Quote - P)))
      return false;
    Out = std::string_view(P, static_cast<size_t>(Quote - P));
    P = Quote + 1;
    return true;
  }
};

/// The fast path of parseTraceLine: keys `t, kind, tid, name` in order,
/// then optional `a`, `b`, `detail`, then `}` ending the line; no
/// whitespace, escapes or other keys. Absent members keep \p R's
/// defaults. Returns false, with \p R in an unspecified state, on
/// anything else, including an unknown kind.
bool parseWriterLayout(const std::string &Line, TraceRecord &R) {
  WriterLayout L{Line.data(), Line.data() + Line.size()};
  std::string_view Kind, Name, Detail;
  if (!L.literal("{\"t\":") || !L.number(R.Time) ||
      !L.literal(",\"kind\":\"") || !L.string(Kind) ||
      !L.literal(",\"tid\":") || !L.number(R.Tid) ||
      !L.literal(",\"name\":\"") || !L.string(Name))
    return false;
  if (L.literal(",\"a\":") && !L.number(R.A))
    return false;
  if (L.literal(",\"b\":") && !L.number(R.B))
    return false;
  if (L.literal(",\"detail\":\"") && !L.string(Detail))
    return false;
  if (!L.literal("}") || L.P != L.End)
    return false;
  const std::optional<TraceKind> K = traceKindFromString(Kind);
  if (!K)
    return false;
  R.Kind = *K;
  R.Name.assign(Name);
  R.Detail.assign(Detail);
  return true;
}

/// Parses one non-empty JSONL line into the default-constructed \p R.
/// Lines in the writer's own layout take the in-place fast path; anything
/// else goes through the general JSON parse, which reads absent or
/// mistyped members as their defaults. On failure \p Why holds the
/// message both readers report.
bool parseTraceLine(const std::string &Line, TraceRecord &R, std::string &Why) {
  if (parseWriterLayout(Line, R))
    return true;
  Why.clear();
  std::optional<JsonValue> V = JsonValue::parse(Line, &Why);
  if (!V || !V->isObject()) {
    if (Why.empty())
      Why = "not an object";
    return false;
  }
  std::optional<TraceKind> Kind = traceKindFromString(V->getString("kind"));
  if (!Kind) {
    Why = "unknown kind '" + V->getString("kind") + "'";
    return false;
  }
  // Checked before the cast: converting a negative, huge or NaN double
  // to uint32_t is undefined behaviour.
  const double Tid = V->getNumber("tid");
  if (!(Tid >= 0.0 && Tid < 4294967296.0 && Tid == std::floor(Tid))) {
    Why = "tid is not an integer in [0, 2^32)";
    return false;
  }
  R.Time = V->getNumber("t");
  R.Kind = *Kind;
  R.Tid = static_cast<uint32_t>(Tid);
  R.Name = V->getString("name");
  R.A = V->getNumber("a");
  R.B = V->getNumber("b");
  R.Detail = V->getString("detail");
  return true;
}

} // namespace

std::optional<std::vector<TraceRecord>>
dope::readTraceJsonl(std::istream &IS, std::string *Error) {
  std::vector<TraceRecord> Out;
  std::string Line;
  std::string Why;
  size_t LineNo = 0;
  while (std::getline(IS, Line)) {
    ++LineNo;
    if (Line.empty())
      continue;
    TraceRecord R;
    if (!parseTraceLine(Line, R, Why)) {
      if (Error)
        *Error = "line " + std::to_string(LineNo) + ": " + Why;
      return std::nullopt;
    }
    Out.push_back(std::move(R));
  }
  return Out;
}

std::vector<TraceRecord> dope::readTraceJsonlLenient(std::istream &IS,
                                                     TraceReadStats *Stats) {
  std::vector<TraceRecord> Out;
  TraceReadStats Local;
  std::string Line;
  std::string Why;
  uint64_t LineNo = 0;
  while (std::getline(IS, Line)) {
    ++LineNo;
    if (Line.empty())
      continue;
    TraceRecord R;
    if (!parseTraceLine(Line, R, Why)) {
      if (Local.Skipped == 0) {
        Local.FirstSkippedLine = LineNo;
        Local.FirstError = Why;
      }
      ++Local.Skipped;
      continue;
    }
    ++Local.Parsed;
    Out.push_back(std::move(R));
  }
  if (Stats)
    *Stats = std::move(Local);
  return Out;
}

void dope::writeChromeTrace(const std::vector<TraceRecord> &Records,
                            std::ostream &OS) {
  // trace_event JSON array form; timestamps in microseconds. Task
  // begin/end map to duration events on the writer's thread track;
  // features and queue depths map to counter tracks; everything else is
  // an instant event.
  std::string Buf;
  Buf.reserve(FlushChunkBytes + 1024);
  Buf += '[';
  bool First = true;
  for (const TraceRecord &R : Records) {
    if (!First)
      Buf += ",\n";
    First = false;
    Buf += "{\"pid\":1,\"tid\":";
    JsonValue::appendNumber(Buf, static_cast<double>(R.Tid));
    Buf += ",\"ts\":";
    JsonValue::appendNumber(Buf, R.Time * 1e6);
    switch (R.Kind) {
    case TraceKind::TaskBegin:
    case TraceKind::TaskEnd:
      Buf += R.Kind == TraceKind::TaskBegin ? ",\"ph\":\"B\",\"name\":\""
                                            : ",\"ph\":\"E\",\"name\":\"";
      JsonValue::escapeTo(Buf, R.Name);
      Buf += "\"}";
      break;
    case TraceKind::FeatureSample:
    case TraceKind::FeatureRead:
    case TraceKind::QueueDepth:
    case TraceKind::TenantUtility:
    case TraceKind::Heartbeat:
    case TraceKind::Counter:
      Buf += ",\"ph\":\"C\",\"name\":\"";
      JsonValue::escapeTo(Buf, R.Name);
      Buf += "\",\"args\":{\"value\":";
      JsonValue::appendNumber(Buf, R.A);
      Buf += "}}";
      break;
    default: {
      Buf += ",\"ph\":\"i\",\"s\":\"g\",\"name\":\"";
      JsonValue::escapeTo(Buf, toString(R.Kind));
      Buf += ':';
      JsonValue::escapeTo(Buf, R.Name);
      Buf += "\",\"args\":{";
      bool FirstArg = true;
      if (!R.Detail.empty()) {
        Buf += "\"detail\":\"";
        JsonValue::escapeTo(Buf, R.Detail);
        Buf += '"';
        FirstArg = false;
      }
      if (R.A != 0.0) {
        if (!FirstArg)
          Buf += ',';
        Buf += "\"a\":";
        JsonValue::appendNumber(Buf, R.A);
        FirstArg = false;
      }
      if (R.B != 0.0) {
        if (!FirstArg)
          Buf += ',';
        Buf += "\"b\":";
        JsonValue::appendNumber(Buf, R.B);
      }
      Buf += "}}";
      break;
    }
    }
    flushBuffer(Buf, OS, /*Force=*/false);
  }
  Buf += "]\n";
  flushBuffer(Buf, OS, /*Force=*/true);
}

bool dope::writeTraceFile(const std::vector<TraceRecord> &Records,
                          const std::string &Path, std::string *Error) {
  std::ofstream OS(Path);
  if (!OS) {
    if (Error)
      *Error = "cannot open '" + Path + "' for writing";
    return false;
  }
  const bool Chrome =
      Path.size() >= 5 && Path.compare(Path.size() - 5, 5, ".json") == 0;
  if (Chrome)
    writeChromeTrace(Records, OS);
  else
    writeTraceJsonl(Records, OS);
  OS.flush();
  if (!OS) {
    if (Error)
      *Error = "write to '" + Path + "' failed";
    return false;
  }
  return true;
}
