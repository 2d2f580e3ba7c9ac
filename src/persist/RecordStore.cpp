//===- persist/RecordStore.cpp - Framed on-disk records per fingerprint ---===//

#include "persist/RecordStore.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <system_error>

#include <unistd.h>

using namespace seqver;
using namespace seqver::persist;
namespace fs = std::filesystem;

namespace {

uint64_t fnv64(const std::string &Bytes) {
  uint64_t H = 0xCBF29CE484222325ULL;
  for (char C : Bytes) {
    H ^= static_cast<unsigned char>(C);
    H *= 0x100000001B3ULL;
  }
  return H;
}

std::string hex64(uint64_t V) {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(V));
  return Buf;
}

/// Byte length of the trailing "checksum <16 hex>\n" line.
constexpr uint64_t ChecksumLineBytes = sizeof("checksum ") - 1 + 16 + 1;

/// Splits "key value" at the first space; returns false if Line does not
/// start with Key followed by a space and a nonempty value.
bool keyedLine(const std::string &Line, const char *Key, std::string &Value) {
  size_t KeyLen = std::strlen(Key);
  if (Line.size() < KeyLen + 2 || Line.compare(0, KeyLen, Key) != 0 ||
      Line[KeyLen] != ' ')
    return false;
  Value = Line.substr(KeyLen + 1);
  return true;
}

} // namespace

bool seqver::persist::parseCount(const std::string &Text, uint64_t Max,
                                 uint64_t &Out) {
  if (Text.empty() || Text.size() > 20)
    return false;
  uint64_t V = 0;
  for (char C : Text) {
    if (C < '0' || C > '9')
      return false;
    uint64_t Digit = static_cast<uint64_t>(C - '0');
    if (V > (UINT64_MAX - Digit) / 10)
      return false;
    V = V * 10 + Digit;
  }
  if (V > Max)
    return false;
  Out = V;
  return true;
}

RecordStore::RecordStore(std::string Directory, const RecordFormat &Format)
    : Dir(std::move(Directory)), Format(&Format) {}

std::string RecordStore::pathFor(const Fingerprint &FP) const {
  return (fs::path(Dir) / (FP.hex() + Format->Extension)).string();
}

bool RecordStore::loadPayload(const Fingerprint &FP,
                              RecordPayload &Out) const {
  if (Dir.empty())
    return false;
  std::string Path = pathFor(FP);
  std::error_code EC;
  uint64_t Size = fs::file_size(Path, EC);
  if (EC || Size > MaxFileBytes)
    return false;

  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::string Bytes(static_cast<size_t>(Size), '\0');
  In.read(Bytes.data(), static_cast<std::streamsize>(Size));
  if (static_cast<uint64_t>(In.gcount()) != Size)
    return false;

  // The checksum line covers every byte before it, including the newline
  // that terminates the item section.
  size_t ChecksumAt = Bytes.rfind("checksum ");
  if (ChecksumAt == std::string::npos ||
      (ChecksumAt != 0 && Bytes[ChecksumAt - 1] != '\n'))
    return false;
  std::string Body = Bytes.substr(0, ChecksumAt);
  std::string ChecksumLine = Bytes.substr(ChecksumAt);
  while (!ChecksumLine.empty() && ChecksumLine.back() == '\n')
    ChecksumLine.pop_back();
  std::string Stored;
  if (!keyedLine(ChecksumLine, "checksum", Stored) ||
      Stored != hex64(fnv64(Body)))
    return false;

  // Line-split the verified body.
  std::vector<std::string> Lines;
  size_t Start = 0;
  while (Start < Body.size()) {
    size_t Nl = Body.find('\n', Start);
    if (Nl == std::string::npos)
      return false; // body must end in a newline
    Lines.push_back(Body.substr(Start, Nl - Start));
    Start = Nl + 1;
  }
  size_t NumHeader = Format->HeaderKeys.size();
  size_t ItemsAt = 3 + NumHeader; // magic, fingerprint, header, count
  if (Lines.size() < ItemsAt || Lines[0] != Format->Magic)
    return false;

  std::string Value;
  if (!keyedLine(Lines[1], "fingerprint", Value))
    return false;
  Fingerprint Declared;
  if (!Fingerprint::fromHex(Value, Declared) || !(Declared == FP))
    return false;

  RecordPayload Payload;
  Payload.Header.resize(NumHeader);
  for (size_t I = 0; I < NumHeader; ++I)
    if (!keyedLine(Lines[2 + I], Format->HeaderKeys[I], Payload.Header[I]))
      return false;
  uint64_t NumItems = 0;
  if (!keyedLine(Lines[ItemsAt - 1], Format->CountKey, Value) ||
      !parseCount(Value, Format->MaxItems, NumItems))
    return false;
  if (Lines.size() != ItemsAt + NumItems)
    return false;
  Payload.Items.assign(std::make_move_iterator(Lines.begin() + ItemsAt),
                       std::make_move_iterator(Lines.end()));
  Out = std::move(Payload);
  return true;
}

uint64_t RecordStore::evictOverCap() const {
  if (Dir.empty())
    return 0;
  struct Entry {
    fs::path Path;
    fs::file_time_type MTime;
    uint64_t Size;
  };
  std::vector<Entry> Entries;
  uint64_t TotalBytes = 0;
  std::error_code EC;
  for (fs::directory_iterator It(Dir, EC), End; !EC && It != End;
       It.increment(EC)) {
    const fs::directory_entry &DE = *It;
    if (DE.path().extension() != Format->Extension)
      continue;
    std::error_code FileEC;
    if (!DE.is_regular_file(FileEC) || FileEC)
      continue;
    uint64_t Size = DE.file_size(FileEC);
    if (FileEC)
      continue;
    fs::file_time_type MTime = DE.last_write_time(FileEC);
    if (FileEC)
      continue;
    Entries.push_back({DE.path(), MTime, Size});
    TotalBytes += Size;
  }
  if (Entries.size() <= MaxEntries && TotalBytes <= MaxTotalBytes)
    return 0;
  // Oldest first; ties broken by path so concurrent evictors agree.
  std::sort(Entries.begin(), Entries.end(),
            [](const Entry &A, const Entry &B) {
              if (A.MTime != B.MTime)
                return A.MTime < B.MTime;
              return A.Path < B.Path;
            });
  uint64_t Evicted = 0;
  size_t Remaining = Entries.size();
  for (const Entry &E : Entries) {
    if (Remaining <= MaxEntries && TotalBytes <= MaxTotalBytes)
      break;
    std::error_code RmEC;
    fs::remove(E.Path, RmEC);
    // A racing evictor may have beaten us to the file; the record is gone
    // either way, so count it against the caps regardless.
    if (!RmEC)
      ++Evicted;
    --Remaining;
    TotalBytes -= std::min(TotalBytes, E.Size);
  }
  return Evicted;
}

bool RecordStore::storePayload(const Fingerprint &FP,
                               const RecordPayload &Payload,
                               uint64_t *Evicted) const {
  if (Evicted)
    *Evicted = 0;
  assert(Payload.Header.size() == Format->HeaderKeys.size());
  if (Dir.empty())
    return false;
  std::error_code EC;
  fs::create_directories(Dir, EC);
  if (EC)
    return false;

  std::string Body = std::string(Format->Magic) + "\n";
  Body += "fingerprint " + FP.hex() + "\n";
  for (size_t I = 0; I < Payload.Header.size(); ++I)
    Body += std::string(Format->HeaderKeys[I]) + " " + Payload.Header[I] +
            "\n";

  // Keep the longest item prefix that fits both the count cap and the
  // read cap: a record load would reject is never written.
  size_t Count = std::min<uint64_t>(Payload.Items.size(), Format->MaxItems);
  uint64_t ItemBytes = 0;
  for (size_t I = 0; I < Count; ++I)
    ItemBytes += Payload.Items[I].size() + 1;
  auto RecordBytes = [&](size_t N) {
    return Body.size() + std::strlen(Format->CountKey) + 1 +
           std::to_string(N).size() + 1 + ItemBytes + ChecksumLineBytes;
  };
  while (Count > 0 && RecordBytes(Count) > MaxFileBytes) {
    --Count;
    ItemBytes -= Payload.Items[Count].size() + 1;
  }
  if (RecordBytes(Count) > MaxFileBytes)
    return false;
  Body += std::string(Format->CountKey) + " " + std::to_string(Count) + "\n";
  for (size_t I = 0; I < Count; ++I)
    Body += Payload.Items[I] + "\n";
  std::string Record = Body + "checksum " + hex64(fnv64(Body)) + "\n";

  // Unique temp name per (process, store call): racing writers of one
  // process must not interleave writes into a shared temp file.
  static std::atomic<uint64_t> Seq{0};
  std::string TempPath = pathFor(FP) + ".tmp." + std::to_string(getpid()) +
                         "." + std::to_string(Seq.fetch_add(1));
  {
    std::ofstream Tmp(TempPath, std::ios::binary | std::ios::trunc);
    if (!Tmp)
      return false;
    Tmp.write(Record.data(), static_cast<std::streamsize>(Record.size()));
    Tmp.flush();
    if (!Tmp) {
      Tmp.close();
      fs::remove(TempPath, EC);
      return false;
    }
  }
  fs::rename(TempPath, pathFor(FP), EC);
  if (EC) {
    fs::remove(TempPath, EC);
    return false;
  }
  uint64_t Removed = evictOverCap();
  if (Evicted)
    *Evicted = Removed;
  return true;
}
