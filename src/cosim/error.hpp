// CosimError: structured failure record for a co-simulation scheme.
//
// When a scheme's IPC boundary dies (peer gone, corrupted stream the
// protocol could not recover, reply that never came), the extension ends the
// simulation gracefully and leaves one of these behind instead of crashing:
// what failed, on which scheme, plus a post-mortem of the last wire
// transfers — both human-readable and as a frame dump `cosim_lint --frames`
// can re-validate.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ipc/capture.hpp"

namespace nisc::cosim {

struct CosimError {
  std::string scheme;   ///< "gdb-wrapper", "gdb-kernel", "driver-kernel"
  std::string message;  ///< what went wrong, with the underlying error text
  /// Human rendering of the last wire transfers (never empty: a scheme with
  /// no capture attached says so explicitly).
  std::string post_mortem;
  /// The same transfers as concatenated Driver-Kernel frames, ready for
  /// `cosim_lint --frames` (empty without a capture).
  std::vector<std::uint8_t> capture_frames;

  std::string to_string() const {
    return "[" + scheme + "] " + message + "\n--- last wire transfers ---\n" + post_mortem;
  }
};

/// Builds a CosimError, folding in `capture`'s ring (may be null).
inline CosimError make_cosim_error(std::string scheme, std::string message,
                                   const std::shared_ptr<ipc::WireCapture>& capture) {
  CosimError error;
  error.scheme = std::move(scheme);
  error.message = std::move(message);
  if (capture != nullptr && !capture->empty()) {
    error.post_mortem = capture->render_text();
    error.capture_frames = capture->dump();
  } else {
    error.post_mortem = "(no wire transfers captured before the failure)\n";
  }
  return error;
}

}  // namespace nisc::cosim
