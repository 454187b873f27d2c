//===- obs/Trace.cpp - Deterministic simulated-time event tracing ---------===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "obs/Trace.h"

#include "obs/Counters.h"
#include "support/Env.h"
#include "support/Json.h"

#include <algorithm>
#include <cstdarg>
#include <mutex>
#include <sys/stat.h>
#include <sys/types.h>

namespace pbt {
namespace obs {

namespace {

/// Process-global trace configuration; written once at startup by the
/// driver/harness, read at sink-open time only (never on hot paths).
/// PBT_TRACE seeds the directory so every binary — standalone
/// experiment, driver, test — honors the environment; an explicit
/// setTraceDir (the driver's --trace flag) overwrites it.
struct TraceGlobal {
  std::mutex Mu;
  std::string Dir;
  std::string Experiment = "adhoc";
  uint64_t NextGroup = 0;

  TraceGlobal() {
    if (const char *Env = envString("PBT_TRACE"))
      if (*Env != '\0')
        Dir = Env;
  }
};

TraceGlobal &traceGlobal() {
  static TraceGlobal G;
  return G;
}

/// Best-effort `mkdir -p`; existing components are fine.
void makeDirs(const std::string &Dir) {
  for (size_t I = 1; I < Dir.size(); ++I)
    if (Dir[I] == '/')
      ::mkdir(Dir.substr(0, I).c_str(), 0777);
  if (!Dir.empty())
    ::mkdir(Dir.c_str(), 0777);
}

// Track layout (Chrome trace pid/tid are just track group/row ids).
constexpr int CoresPid = 1;
constexpr int ProcsPid = 2;
constexpr int ScenarioPid = 3;

} // namespace

bool traceEnabled() {
  TraceGlobal &G = traceGlobal();
  std::lock_guard<std::mutex> L(G.Mu);
  return !G.Dir.empty();
}

void setTraceDir(const std::string &Dir) {
  TraceGlobal &G = traceGlobal();
  std::lock_guard<std::mutex> L(G.Mu);
  G.Dir = Dir;
}

std::string traceDir() {
  TraceGlobal &G = traceGlobal();
  std::lock_guard<std::mutex> L(G.Mu);
  return G.Dir;
}

void setTraceExperiment(const std::string &Name) {
  TraceGlobal &G = traceGlobal();
  std::lock_guard<std::mutex> L(G.Mu);
  G.Experiment = Name;
  G.NextGroup = 0;
}

uint64_t beginTraceGroup() {
  TraceGlobal &G = traceGlobal();
  std::lock_guard<std::mutex> L(G.Mu);
  return G.NextGroup++;
}

std::unique_ptr<TraceSink> TraceSink::openForUnit(const std::string &UnitId,
                                                  uint64_t Group) {
  std::string Dir, Exp;
  {
    TraceGlobal &G = traceGlobal();
    std::lock_guard<std::mutex> L(G.Mu);
    if (G.Dir.empty())
      return nullptr;
    Dir = G.Dir;
    Exp = G.Experiment;
  }
  makeDirs(Dir);
  // Unit ids are paths like "cell/t0/w1/s0/c2/n0"; flatten for the
  // file name so every unit lands in one flat directory.
  std::string Unit = UnitId;
  std::replace(Unit.begin(), Unit.end(), '/', '-');
  char Name[256];
  std::snprintf(Name, sizeof Name, "TRACE_%s.g%llu.%s.json", Exp.c_str(),
                static_cast<unsigned long long>(Group), Unit.c_str());
  return openAt(Dir + "/" + Name);
}

std::unique_ptr<TraceSink> TraceSink::openAt(const std::string &Path) {
  std::FILE *Out = std::fopen(Path.c_str(), "wb");
  if (!Out) {
    std::fprintf(stderr, "[obs] cannot open trace file %s; tracing off\n",
                 Path.c_str());
    return nullptr;
  }
  CounterRegistry::global().add("trace.sinks", 1);
  return std::unique_ptr<TraceSink>(new TraceSink(Out, Path));
}

TraceSink::TraceSink(std::FILE *Out, std::string Path)
    : Out(Out), Path(std::move(Path)) {
  Buf.reserve(bufferCapacity() + 1024);
  Buf += "{\"traceEvents\": [";
  beginEvent();
  appendf("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":0,"
          "\"args\":{\"name\":\"cores\"}}",
          CoresPid);
  endEvent();
  beginEvent();
  appendf("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":0,"
          "\"args\":{\"name\":\"processes\"}}",
          ProcsPid);
  endEvent();
  beginEvent();
  appendf("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":0,"
          "\"args\":{\"name\":\"scenario\"}}",
          ScenarioPid);
  endEvent();
}

TraceSink::~TraceSink() {
  Buf += "\n]}\n";
  Peak = std::max(Peak, Buf.size());
  flush();
  std::fclose(Out);
}

void TraceSink::appendf(const char *Fmt, ...) {
  char Tmp[512];
  std::va_list Ap;
  va_start(Ap, Fmt);
  int N = std::vsnprintf(Tmp, sizeof Tmp, Fmt, Ap);
  va_end(Ap);
  if (N > 0)
    Buf.append(Tmp, std::min(static_cast<size_t>(N), sizeof Tmp - 1));
}

void TraceSink::beginEvent() {
  Buf += First ? "\n  " : ",\n  ";
  First = false;
}

void TraceSink::endEvent() {
  CounterRegistry::global().add("trace.events", 1);
  Peak = std::max(Peak, Buf.size());
  if (Buf.size() >= bufferCapacity())
    flush();
}

void TraceSink::flush() {
  if (Buf.empty())
    return;
  std::fwrite(Buf.data(), 1, Buf.size(), Out);
  CounterRegistry::global().add("trace.bytes", Buf.size());
  Buf.clear();
}

void TraceSink::coreTrack(uint32_t Core, const std::string &Label) {
  beginEvent();
  std::string Name;
  appendJsonString(Name, Label);
  appendf("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":%u,"
          "\"args\":{\"name\":%s}}",
          CoresPid, Core, Name.c_str());
  endEvent();
}

void TraceSink::machineTrack(uint32_t Tid) {
  MachineTid = Tid;
  beginEvent();
  appendf("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":%u,"
          "\"args\":{\"name\":\"machine\"}}",
          CoresPid, Tid);
  endEvent();
}

void TraceSink::processTrack(uint32_t Pid, const std::string &Label) {
  beginEvent();
  std::string Name;
  appendJsonString(Name, Label);
  appendf("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":%u,"
          "\"args\":{\"name\":%s}}",
          ProcsPid, Pid, Name.c_str());
  endEvent();
}

void TraceSink::spawn(double Ts, uint32_t Pid, uint32_t Core,
                      int32_t Slot) {
  beginEvent();
  appendf("{\"name\":\"spawn\",\"ph\":\"i\",\"s\":\"t\",\"pid\":%d,"
          "\"tid\":%u,\"ts\":%.12g,\"args\":{\"core\":%u,\"slot\":%d}}",
          ProcsPid, Pid, Ts, Core, Slot);
  endEvent();
}

void TraceSink::exitProcess(double Ts, uint32_t Pid, uint64_t Insts) {
  beginEvent();
  appendf("{\"name\":\"exit\",\"ph\":\"i\",\"s\":\"t\",\"pid\":%d,"
          "\"tid\":%u,\"ts\":%.12g,\"args\":{\"insts\":%llu}}",
          ProcsPid, Pid, Ts, static_cast<unsigned long long>(Insts));
  endEvent();
}

void TraceSink::window(double Ts, double Dur, uint32_t Core, uint32_t Pid,
                       uint64_t Insts) {
  beginEvent();
  appendf("{\"name\":\"p%u\",\"ph\":\"X\",\"pid\":%d,\"tid\":%u,"
          "\"ts\":%.12g,\"dur\":%.12g,\"args\":{\"proc\":%u,\"insts\":%llu}}",
          Pid, CoresPid, Core, Ts, Dur, Pid,
          static_cast<unsigned long long>(Insts));
  endEvent();
  beginEvent();
  appendf("{\"name\":\"core%u\",\"ph\":\"X\",\"pid\":%d,\"tid\":%u,"
          "\"ts\":%.12g,\"dur\":%.12g,\"args\":{\"core\":%u,\"insts\":%llu}}",
          Core, ProcsPid, Pid, Ts, Dur, Core,
          static_cast<unsigned long long>(Insts));
  endEvent();
}

void TraceSink::migrate(double Ts, uint32_t Pid, uint32_t From,
                        uint32_t To) {
  beginEvent();
  appendf("{\"name\":\"migrate\",\"ph\":\"i\",\"s\":\"t\",\"pid\":%d,"
          "\"tid\":%u,\"ts\":%.12g,\"args\":{\"from\":%u,\"to\":%u}}",
          ProcsPid, Pid, Ts, From, To);
  endEvent();
}

void TraceSink::reassign(double Ts, uint32_t Pid, uint32_t From,
                         uint32_t To, double Ipc) {
  beginEvent();
  appendf("{\"name\":\"reassign\",\"ph\":\"i\",\"s\":\"t\",\"pid\":%d,"
          "\"tid\":%u,\"ts\":%.12g,"
          "\"args\":{\"from\":%u,\"to\":%u,\"ipc\":%.4g}}",
          ProcsPid, Pid, Ts, From, To, Ipc);
  endEvent();
}

void TraceSink::balance(double Ts) {
  beginEvent();
  appendf("{\"name\":\"balance\",\"ph\":\"i\",\"s\":\"t\",\"pid\":%d,"
          "\"tid\":%u,\"ts\":%.12g}",
          CoresPid, MachineTid, Ts);
  endEvent();
}

void TraceSink::inject(double Ts) {
  beginEvent();
  appendf("{\"name\":\"inject\",\"ph\":\"i\",\"s\":\"t\",\"pid\":%d,"
          "\"tid\":%u,\"ts\":%.12g}",
          CoresPid, MachineTid, Ts);
  endEvent();
}

void TraceSink::arrival(double Ts, uint32_t Bench) {
  beginEvent();
  appendf("{\"name\":\"arrival\",\"ph\":\"i\",\"s\":\"t\",\"pid\":%d,"
          "\"tid\":0,\"ts\":%.12g,\"args\":{\"bench\":%u}}",
          ScenarioPid, Ts, Bench);
  endEvent();
}

void TraceSink::admit(double Ts, uint32_t Pid, uint32_t Bench) {
  beginEvent();
  appendf("{\"name\":\"admit\",\"ph\":\"i\",\"s\":\"t\",\"pid\":%d,"
          "\"tid\":0,\"ts\":%.12g,\"args\":{\"pid\":%u,\"bench\":%u}}",
          ScenarioPid, Ts, Pid, Bench);
  endEvent();
}

void TraceSink::complete(double Ts, uint32_t Pid, uint32_t Bench) {
  beginEvent();
  appendf("{\"name\":\"complete\",\"ph\":\"i\",\"s\":\"t\",\"pid\":%d,"
          "\"tid\":0,\"ts\":%.12g,\"args\":{\"pid\":%u,\"bench\":%u}}",
          ScenarioPid, Ts, Pid, Bench);
  endEvent();
}

void TraceSink::runEnd(double Ts, uint64_t Completed, uint64_t Spawned) {
  beginEvent();
  appendf("{\"name\":\"run_end\",\"ph\":\"i\",\"s\":\"t\",\"pid\":%d,"
          "\"tid\":0,\"ts\":%.12g,"
          "\"args\":{\"completed\":%llu,\"spawned\":%llu}}",
          ScenarioPid, Ts, static_cast<unsigned long long>(Completed),
          static_cast<unsigned long long>(Spawned));
  endEvent();
}

} // namespace obs
} // namespace pbt
