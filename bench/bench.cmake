# Included from the top-level CMakeLists (not add_subdirectory) so that
# build/bench/ contains ONLY the experiment binaries: `for b in build/bench/*`
# is the documented way to regenerate every experiment.
function(yh_bench name)
  add_executable(${name} ${CMAKE_SOURCE_DIR}/bench/${name}.cc)
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
  target_link_libraries(${name} PRIVATE
    yh_scenario yh_serve yh_adapt yh_diff yh_core yh_faultinject yh_runtime yh_instrument
    yh_analysis yh_profile yh_profiler yh_pmu yh_obs yh_sim yh_workloads yh_coro
    yh_perfev yh_isa yh_common benchmark::benchmark Threads::Threads)
endfunction()

yh_bench(bench_fig1_spectrum)
yh_bench(bench_c1_switch_cost)
yh_bench(bench_c2_stall_fraction)
yh_bench(bench_c3_primary)
yh_bench(bench_c4_smt_vs_coro)
yh_bench(bench_c5_asymmetric)
yh_bench(bench_c6_ablation)
yh_bench(bench_c7_policy_sweep)
yh_bench(bench_c8_interval_sweep)
yh_bench(bench_c9_hw_visibility)
yh_bench(bench_c10_sampling)
yh_bench(bench_n1_native_interleave)
yh_bench(bench_c11_inline_level)
yh_bench(bench_r1_fault_matrix)
yh_bench(bench_r2_serving_faults)
yh_bench(bench_a1_adaptation)
yh_bench(bench_a2_sharded)
yh_bench(bench_o1_observability)
yh_bench(bench_s1_serving)
yh_bench(bench_o2_attribution)
yh_bench(bench_o3_spans)
yh_bench(bench_o4_diagnosis)
yh_bench(bench_q1_tenants)
