// Wire-protocol frame validator (paper §4.2).
//
// Validates a buffer holding zero or more concatenated framed messages in
// one of two dialects:
//  * DriverKernel: {u32 packet_size, body} as produced by
//    ipc::encode_message. Each body is decoded with ipc::decode_message_body
//    and re-encoded; a decode failure or a round-trip mismatch is a defect
//    in the sender.
//  * Worker: {u32 body_len, u8 op, u64 seq, payload} as produced by
//    cosim::send_frame. Fixed-payload ops may carry the optional 12-byte
//    FTID trace-id trailer, which is NOT a defect (postmortem captures of
//    traced sessions must not false-positive on it).
// Each dialect's frames are cut by the module that owns the format
// (ipc::cut_message_frame, cosim::cut_worker_frame), so this validator
// cannot disagree with the runtime about where a frame ends.
//
// Rules:
//  * frame.truncated (error): buffer ends inside a size field or a body.
//  * frame.oversized (error): the size field exceeds the dialect's limit
//    (corrupt size field; scanning stops — resynchronisation is hopeless).
//  * frame.malformed (error): body fails to decode (bad type / unknown op,
//    truncated item, payload length off for a fixed-payload op).
//  * frame.roundtrip (warning): body decodes but re-encoding differs —
//    the frame is readable but not canonical (DriverKernel only).
//
// The reported SourceLoc uses `file` for the buffer's origin and `line` for
// the 1-based frame ordinal within it.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "analysis/diag.hpp"

namespace nisc::analysis {

/// Which framing dialect check_frames validates.
enum class FrameDialect : std::uint8_t {
  DriverKernel,  ///< ipc::encode_message frames
  Worker,        ///< cosim::send_frame frames (supervisor <-> worker wire)
};

/// Validates every frame in `buffer`; returns the number of well-formed
/// frames (decoded and canonical).
std::size_t check_frames(std::span<const std::uint8_t> buffer, DiagEngine& diags,
                         const std::string& origin = "<frames>",
                         FrameDialect dialect = FrameDialect::DriverKernel);

}  // namespace nisc::analysis
