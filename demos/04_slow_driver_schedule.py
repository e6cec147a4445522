"""Slow drivers: pinning recovery times to a prescribed rate function.

Given a rate psi(eps) -> infinity that outgrows the covering cost, one can
schedule a driver in blocks: idle at a base map for p_k steps, then run a
covering word sigma_k.  The recovery time at eps_k = 3*C_{m_k} is then
bracketed between v(k-1) + p_k and v(k-1) + p_k + m_k * N_k, so n/psi(eps_k)
tends to 1 along the schedule.
"""

import chaosgame as cg


def main() -> None:
    cantor = cg.cantor_ifs()
    cloud = cg.build_cloud(cantor, 3e-7)
    psi = cg.power_rate(1.0)
    schedule = cg.build_schedule(cantor, cloud, psi, k_max=3, step_cap=5 * 10 ** 6)
    base = schedule.base
    print(f"Base map: index {base.i_star}, fixed point {base.x_star[0]:g}, "
          f"delta = {base.delta:g}")
    print("\nSchedule (psi(eps) = 1/eps):")
    print("  k  m_k  p_k        N_k    v_k        eps_k")
    for k, e in enumerate(schedule.entries, start=1):
        print(f"  {k}  {e.m:<4} {e.p:<10} {e.N_hat:<6} {e.v:<10} {e.eps:.3g}")

    driver = cg.slow_driver(schedule)
    print("\nMeasured recovery times vs the bracket (x0 = 0):")
    for k, e in enumerate(schedule.entries, start=1):
        v_prev = schedule.entries[k - 2].v if k >= 2 else 0
        n = cg.recovery_time(cantor, driver, [0.0], e.eps, cloud,
                             cap=5 * 10 ** 6).n
        lo, hi = v_prev + e.p, v_prev + e.p + e.m * e.N_hat
        print(f"  k={k}: {lo} <= n = {n} <= {hi},  "
              f"n/psi(eps_k) = {cg.rate_ratio(n, psi, e.eps):.3f}")
    print("  (the ratio approaches 1 from above as k grows)")


if __name__ == "__main__":
    main()
