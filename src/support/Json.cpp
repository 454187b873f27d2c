//===- support/Json.cpp - Minimal ordered JSON document builder -----------===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"

#include <cassert>
#include <cmath>
#include <cstdio>

using namespace pbt;

Json &Json::operator[](const std::string &Key) {
  if (K == Kind::Null)
    K = Kind::Object;
  assert(K == Kind::Object && "indexing a non-object Json value");
  for (auto &Member : Obj)
    if (Member.first == Key)
      return Member.second;
  Obj.emplace_back(Key, Json());
  return Obj.back().second;
}

const Json *Json::find(const std::string &Key) const {
  if (K != Kind::Object)
    return nullptr;
  for (const auto &Member : Obj)
    if (Member.first == Key)
      return &Member.second;
  return nullptr;
}

Json &Json::push(Json Value) {
  if (K == Kind::Null)
    K = Kind::Array;
  assert(K == Kind::Array && "pushing into a non-array Json value");
  Arr.push_back(std::move(Value));
  return Arr.back();
}

size_t Json::size() const {
  if (K == Kind::Array)
    return Arr.size();
  if (K == Kind::Object)
    return Obj.size();
  return 0;
}

namespace {

void newlineIndent(std::string &Out, int Indent, int Depth) {
  if (Indent <= 0)
    return;
  Out.push_back('\n');
  Out.append(static_cast<size_t>(Indent) * Depth, ' ');
}

} // namespace

void pbt::appendJsonString(std::string &Out, const std::string &S) {
  Out.push_back('"');
  for (unsigned char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (C < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out.push_back(static_cast<char>(C));
      }
    }
  }
  Out.push_back('"');
}

void Json::dumpTo(std::string &Out, int Indent, int Depth) const {
  char Buf[64];
  switch (K) {
  case Kind::Null:
    Out += "null";
    break;
  case Kind::Bool:
    Out += B ? "true" : "false";
    break;
  case Kind::Int:
    std::snprintf(Buf, sizeof(Buf), "%lld", static_cast<long long>(I));
    Out += Buf;
    break;
  case Kind::UInt:
    std::snprintf(Buf, sizeof(Buf), "%llu", static_cast<unsigned long long>(U));
    Out += Buf;
    break;
  case Kind::Double:
    if (std::isfinite(D)) {
      std::snprintf(Buf, sizeof(Buf), "%.12g", D);
      Out += Buf;
    } else {
      Out += "null"; // JSON has no NaN/Inf.
    }
    break;
  case Kind::String:
    appendJsonString(Out, S);
    break;
  case Kind::Array:
    Out.push_back('[');
    for (size_t Index = 0; Index < Arr.size(); ++Index) {
      if (Index)
        Out.push_back(',');
      newlineIndent(Out, Indent, Depth + 1);
      Arr[Index].dumpTo(Out, Indent, Depth + 1);
    }
    if (!Arr.empty())
      newlineIndent(Out, Indent, Depth);
    Out.push_back(']');
    break;
  case Kind::Object:
    Out.push_back('{');
    for (size_t Index = 0; Index < Obj.size(); ++Index) {
      if (Index)
        Out.push_back(',');
      newlineIndent(Out, Indent, Depth + 1);
      appendJsonString(Out, Obj[Index].first);
      Out += Indent > 0 ? ": " : ":";
      Obj[Index].second.dumpTo(Out, Indent, Depth + 1);
    }
    if (!Obj.empty())
      newlineIndent(Out, Indent, Depth);
    Out.push_back('}');
    break;
  }
}

std::string Json::dump(int Indent) const {
  std::string Out;
  dumpTo(Out, Indent, 0);
  return Out;
}

bool pbt::writeJsonFile(const std::string &Path, const Json &Root) {
  std::FILE *Out = std::fopen(Path.c_str(), "w");
  if (!Out)
    return false;
  std::string Text = Root.dump();
  Text.push_back('\n');
  bool Ok = std::fwrite(Text.data(), 1, Text.size(), Out) == Text.size();
  Ok &= std::fclose(Out) == 0;
  return Ok;
}
