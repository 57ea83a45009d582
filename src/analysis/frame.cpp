#include "analysis/frame.hpp"

#include <algorithm>
#include <string>

#include "cosim/worker.hpp"
#include "ipc/message.hpp"

namespace nisc::analysis {

namespace {

/// Reports why a cut that is not Whole ends the scan of `what` frame
/// `loc.line` at `offset`, with `remaining` bytes left in the buffer.
void report_cut(ipc::FrameCut cut, std::uint32_t length, const char* what, std::size_t offset,
                std::size_t remaining, DiagEngine& diags, const SourceLoc& loc) {
  const std::string where = std::string(what) + " #" + std::to_string(loc.line) +
                            " at offset " + std::to_string(offset) + ": ";
  switch (cut) {
    case ipc::FrameCut::ShortLength:
      diags.report(Severity::Error, "frame.truncated",
                   where + "only " + std::to_string(remaining) +
                       " byte(s) left, length field needs 4",
                   loc);
      return;
    case ipc::FrameCut::BadLength:
      diags.report(Severity::Error, "frame.oversized",
                   where + "length field " + std::to_string(length) +
                       " is out of bounds; stopping scan",
                   loc);
      return;
    case ipc::FrameCut::ShortBody:
      diags.report(Severity::Error, "frame.truncated",
                   where + "body needs " + std::to_string(length) + " bytes but only " +
                       std::to_string(remaining - 4) + " remain",
                   loc);
      return;
    case ipc::FrameCut::Whole:
      return;
  }
}

/// Worker dialect: every frame is cut by cosim::cut_worker_frame, so the
/// linter and the runtime agree on where each frame ends.
std::size_t check_worker_frames(std::span<const std::uint8_t> buffer, DiagEngine& diags,
                                const std::string& origin) {
  std::size_t good = 0;
  std::size_t offset = 0;
  int ordinal = 0;
  while (offset < buffer.size()) {
    ++ordinal;
    const SourceLoc loc{origin, ordinal, 0};
    const cosim::WorkerFrameView frame = cosim::cut_worker_frame(buffer.subspan(offset));
    if (frame.cut != ipc::FrameCut::Whole) {
      report_cut(frame.cut, frame.length, "worker frame", offset, buffer.size() - offset, diags,
                 loc);
      break;
    }
    const std::string defect = cosim::worker_frame_defect(frame);
    if (!defect.empty()) {
      diags.report(Severity::Error, "frame.malformed",
                   "worker frame #" + std::to_string(ordinal) + ": " + defect, loc);
    } else {
      ++good;
    }
    offset += frame.size();
  }
  return good;
}

}  // namespace

std::size_t check_frames(std::span<const std::uint8_t> buffer, DiagEngine& diags,
                         const std::string& origin, FrameDialect dialect) {
  if (dialect == FrameDialect::Worker) return check_worker_frames(buffer, diags, origin);
  std::size_t good = 0;
  std::size_t offset = 0;
  int ordinal = 0;
  while (offset < buffer.size()) {
    ++ordinal;
    const SourceLoc loc{origin, ordinal, 0};
    const ipc::MessageFrameView frame = ipc::cut_message_frame(buffer.subspan(offset));
    if (frame.cut != ipc::FrameCut::Whole) {
      report_cut(frame.cut, frame.length, "frame", offset, buffer.size() - offset, diags, loc);
      break;
    }
    auto decoded = ipc::decode_message_body(frame.body);
    if (!decoded.ok()) {
      diags.report(Severity::Error, "frame.malformed",
                   "frame #" + std::to_string(ordinal) + ": " + decoded.error(), loc);
    } else {
      std::vector<std::uint8_t> reencoded = ipc::encode_message(decoded.value());
      std::span<const std::uint8_t> original = buffer.subspan(offset, frame.size());
      if (!std::equal(reencoded.begin(), reencoded.end(), original.begin(), original.end())) {
        diags.report(Severity::Warning, "frame.roundtrip",
                     "frame #" + std::to_string(ordinal) +
                         " decodes but is not canonical: re-encoding yields " +
                         std::to_string(reencoded.size()) + " bytes vs " +
                         std::to_string(frame.size()) + " on the wire",
                     loc);
      } else {
        ++good;
      }
    }
    offset += frame.size();
  }
  return good;
}

}  // namespace nisc::analysis
