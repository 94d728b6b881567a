"""Set-up of one workload in a fresh interpreter, timed by the parent.

Usage: ``python3 perfbench/setup_probe.py <workload> <scratch dir>`` with
``src`` on ``PYTHONPATH``.  The probe imports the CLI package and starts
what the workload needs before its first config: nothing more for the
compare workloads, and for sweep-service a broker (which opens its store
and index), its HTTP server and one runner thread.  Then it prints one
JSON line.  The parent's clock from spawn to that line is the set-up time.
"""

import json
import sys
import threading
import time

t0 = time.perf_counter()
import repro.cli  # noqa: E402,F401  (the import a user's first command pays)

import_s = time.perf_counter() - t0


def main(workload: str, root: str) -> int:
    if workload != "sweep-service":
        print(json.dumps({"import_s": import_s}), flush=True)
        return 0
    from repro.service.broker import Broker, BrokerServer
    from repro.service.runner import runner_loop

    broker = Broker(root, lease_s=60.0)
    server = BrokerServer(broker).start()
    stop = threading.Event()
    thread = threading.Thread(
        target=runner_loop, args=(server.url,),
        kwargs=dict(jobs=1, runner_id="setup-probe", poll_s=0.05,
                    stop=stop, give_up_after_s=None,
                    install_signal_handlers=False),
        daemon=True,
    )
    thread.start()
    print(json.dumps({"import_s": import_s}), flush=True)
    stop.set()
    thread.join(timeout=30)
    server.shutdown()
    broker.journal.close()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
