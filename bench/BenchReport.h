//===- bench/BenchReport.h - Experiment reporting helpers ------*- C++ -*-===//
//
// Part of the Exterminator reproduction (Novark, Berger & Zorn, PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small helpers shared by the experiment harnesses: aligned table
/// printing, wall-clock timing, the host's CPU model and JSON output.
/// Each bench binary regenerates one table or figure from the paper's
/// evaluation (§7) and prints both the measured values and the paper's
/// reference numbers.
///
//===----------------------------------------------------------------------===//

#ifndef EXTERMINATOR_BENCH_BENCHREPORT_H
#define EXTERMINATOR_BENCH_BENCHREPORT_H

#include <cassert>
#include <chrono>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

namespace benchreport {

/// Prints a heading like the paper's table/figure captions.
inline void heading(const std::string &Title) {
  std::printf("\n==== %s ====\n", Title.c_str());
}

inline void note(const char *Format, ...) {
  std::va_list Args;
  va_start(Args, Format);
  std::printf("  ");
  std::vprintf(Format, Args);
  std::printf("\n");
  va_end(Args);
}

/// Renders rows of equal-width columns.
class Table {
public:
  explicit Table(std::vector<std::string> Header)
      : Header(std::move(Header)) {}

  void addRow(std::vector<std::string> Row) { Rows.push_back(std::move(Row)); }

  void print() const {
    std::vector<size_t> Widths(Header.size(), 0);
    auto Widen = [&](const std::vector<std::string> &Row) {
      for (size_t I = 0; I < Row.size() && I < Widths.size(); ++I)
        if (Row[I].size() > Widths[I])
          Widths[I] = Row[I].size();
    };
    Widen(Header);
    for (const auto &Row : Rows)
      Widen(Row);

    auto PrintRow = [&](const std::vector<std::string> &Row) {
      std::printf("  ");
      for (size_t I = 0; I < Row.size(); ++I)
        std::printf("%-*s  ", static_cast<int>(Widths[I]), Row[I].c_str());
      std::printf("\n");
    };
    PrintRow(Header);
    std::vector<std::string> Rule;
    for (size_t W : Widths)
      Rule.push_back(std::string(W, '-'));
    PrintRow(Rule);
    for (const auto &Row : Rows)
      PrintRow(Row);
  }

private:
  std::vector<std::string> Header;
  std::vector<std::vector<std::string>> Rows;
};

inline std::string fmt(const char *Format, ...) {
  char Buffer[256];
  std::va_list Args;
  va_start(Args, Format);
  std::vsnprintf(Buffer, sizeof(Buffer), Format, Args);
  va_end(Args);
  return Buffer;
}

/// Wall-clock seconds consumed by \p Fn.
template <typename FnT> double timeSeconds(FnT Fn) {
  const auto Start = std::chrono::steady_clock::now();
  Fn();
  const auto End = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(End - Start).count();
}

/// The host CPU's model name from /proc/cpuinfo ("unknown" where the
/// file or the field is missing), for the `config` block of a capture.
inline std::string cpuModel() {
  std::ifstream Info("/proc/cpuinfo");
  std::string Line;
  while (std::getline(Info, Line))
    if (Line.rfind("model name", 0) == 0) {
      const size_t Colon = Line.find(": ");
      if (Colon != std::string::npos)
        return Line.substr(Colon + 2);
    }
  return "unknown";
}

/// Minimal streaming JSON writer for the machine-readable bench reports
/// (BENCH_*.json).  Keys/values are emitted in call order; a stack of
/// comma states keeps the nesting honest.
class JsonWriter {
public:
  void beginObject(const std::string &Key = "") { open('{', Key); }
  void endObject() { close('}'); }
  void beginArray(const std::string &Key = "") { open('[', Key); }
  void endArray() { close(']'); }

  void field(const std::string &Key, const std::string &Value) {
    prefix(Key);
    Out += quote(Value);
  }
  void field(const std::string &Key, const char *Value) {
    field(Key, std::string(Value));
  }
  void field(const std::string &Key, double Value) {
    prefix(Key);
    char Buffer[64];
    std::snprintf(Buffer, sizeof(Buffer), "%.6g", Value);
    Out += Buffer;
  }
  void field(const std::string &Key, uint64_t Value) {
    prefix(Key);
    Out += std::to_string(Value);
  }
  void field(const std::string &Key, int Value) {
    prefix(Key);
    Out += std::to_string(Value);
  }
  void field(const std::string &Key, bool Value) {
    prefix(Key);
    Out += Value ? "true" : "false";
  }

  const std::string &str() const {
    assert(Depth.empty() && "unbalanced begin/end");
    return Out;
  }

  /// Writes the document (plus trailing newline) to \p Path; returns
  /// false on I/O failure.
  bool writeFile(const std::string &Path) const {
    std::FILE *File = std::fopen(Path.c_str(), "w");
    if (!File)
      return false;
    const std::string &Doc = str();
    const bool Ok = std::fwrite(Doc.data(), 1, Doc.size(), File) == Doc.size();
    std::fputc('\n', File);
    return std::fclose(File) == 0 && Ok;
  }

private:
  static std::string quote(const std::string &S) {
    std::string Quoted = "\"";
    for (char C : S) {
      if (C == '"' || C == '\\') {
        Quoted += '\\';
        Quoted += C;
      } else if (static_cast<unsigned char>(C) < 0x20) {
        char Buffer[8];
        std::snprintf(Buffer, sizeof(Buffer), "\\u%04x",
                      static_cast<unsigned char>(C));
        Quoted += Buffer;
      } else {
        Quoted += C;
      }
    }
    Quoted += '"';
    return Quoted;
  }

  void prefix(const std::string &Key) {
    if (!Depth.empty() && Depth.back())
      Out += ',';
    if (!Depth.empty())
      Depth.back() = true;
    if (!Key.empty()) {
      Out += quote(Key);
      Out += ':';
    }
  }

  void open(char C, const std::string &Key) {
    prefix(Key);
    Out += C;
    Depth.push_back(false);
  }

  void close(char C) {
    assert(!Depth.empty() && "close without open");
    Depth.pop_back();
    Out += C;
  }

  std::string Out;
  std::vector<bool> Depth; // true once the scope has emitted an element
};

} // namespace benchreport

#endif // EXTERMINATOR_BENCH_BENCHREPORT_H
