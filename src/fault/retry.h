// Retry/backoff arithmetic for transfer faults and crash detection.
//
// A scheduled drop or corruption never actually loses data — the payload is
// held in process, or has already landed on sockets — so the RetryPolicy
// prices what a real runtime would pay for it: each failed attempt burns the
// receive timeout, then the sender waits an exponentially growing backoff
// before retransmitting. The total penalty is charged to the comm time (the
// successful transfer itself is already part of it). Crash detection is the
// same sum: one missed-heartbeat timeout plus the first backoff, priced in
// process and used as the heartbeat-silence threshold on sockets.
#ifndef SRC_FAULT_RETRY_H_
#define SRC_FAULT_RETRY_H_

namespace flexgraph {

struct RetryPolicy {
  int max_attempts = 5;                 // total delivery attempts allowed
  double timeout_seconds = 0.05;        // receive/heartbeat timeout per failed attempt
  double base_backoff_seconds = 0.01;   // wait before the first retransmit
  double backoff_multiplier = 2.0;      // exponential growth per retry
  double max_backoff_seconds = 1.0;     // backoff cap

  // Backoff slept before retry number `attempt` (0-based):
  // min(base * multiplier^attempt, max).
  double BackoffSeconds(int attempt) const;

  // Priced wall-clock cost of `failures` failed attempts before the
  // eventual success: sum of (timeout + backoff(i)) for i in [0, failures).
  // Throws CheckError when failures leaves no attempt for the success —
  // the unrecoverable-transfer condition.
  double PenaltySeconds(int failures) const;

  // Time for the cluster to notice a dead worker and begin recovery: one
  // missed heartbeat plus the initial backoff.
  double DetectionSeconds() const { return timeout_seconds + BackoffSeconds(0); }
};

}  // namespace flexgraph

#endif  // SRC_FAULT_RETRY_H_
