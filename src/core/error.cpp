#include "core/error.hpp"

namespace hypart {

const char* to_string(ErrorKind kind) {
  switch (kind) {
    case ErrorKind::Parse: return "parse";
    case ErrorKind::Config: return "config";
    case ErrorKind::Unsatisfiable: return "unsatisfiable";
    case ErrorKind::Fault: return "fault";
    case ErrorKind::Stall: return "stall";
    case ErrorKind::WorkerDeath: return "worker-death";
    case ErrorKind::Io: return "io";
    case ErrorKind::Internal: return "internal";
    case ErrorKind::Overloaded: return "overloaded";
    case ErrorKind::Overflow: return "overflow";
  }
  return "?";
}

int Error::exit_code() const {
  switch (kind_) {
    case ErrorKind::Parse: return 65;
    case ErrorKind::Unsatisfiable: return 69;
    case ErrorKind::Internal: return 70;
    case ErrorKind::Io: return 74;
    case ErrorKind::Stall: return 75;
    case ErrorKind::WorkerDeath: return 76;
    case ErrorKind::Fault: return 77;
    case ErrorKind::Config: return 78;
    case ErrorKind::Overloaded: return 79;
    case ErrorKind::Overflow: return 80;
  }
  return 70;
}

}  // namespace hypart
