(* Entry point of the repository benchmark.

     qbench.exe --workload NAME --seed N --seconds S --trace 0|1
                [--poison value|order|lost_write] [--small]

   prints diagnostics, then one JSON result line, and exits non-zero when
   an oracle fails.  [qbench.exe serve DIR ROWS SEED] is the oltp_mixed
   server process, started by the benchmark itself. *)

open Common

let usage () =
  prerr_endline
    "usage: qbench.exe --workload tpch_suite|adhoc_small|oltp_mixed --seed N \
     --seconds S --trace 0|1 [--poison value|order|lost_write] [--small]";
  exit 2

let () =
  match Array.to_list Sys.argv with
  | [ _; "serve"; dir; rows; seed ] ->
      Oltp.serve dir ~rows:(int_of_string rows) ~seed:(int_of_string seed)
  | _ :: args ->
      let workload = ref "" and seed = ref None and seconds = ref None
      and trace = ref None and small = ref false in
      let rec parse = function
        | "--workload" :: v :: rest -> workload := v; parse rest
        | "--seed" :: v :: rest -> seed := int_of_string_opt v; parse rest
        | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; parse rest
        | "--trace" :: ("0" | "1" as v) :: rest -> trace := Some (v = "1"); parse rest
        | "--poison" :: v :: rest -> Oracle.poison := v; parse rest
        | "--small" :: rest -> small := true; parse rest
        | [] -> ()
        | _ -> usage ()
      in
      parse args;
      let seed, seconds, traced =
        match (!seed, !seconds, !trace) with
        | Some s, Some t, Some tr when t > 0.0 -> (s, t, tr)
        | _ -> usage ()
      in
      (* A peer closing its socket must surface as EPIPE, not kill us. *)
      Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
      print_host ();
      Printf.printf "workload: %s seed=%d seconds=%g trace=%b%s\n%!" !workload seed seconds
        traced (if !Oracle.poison = "" then "" else " poison=" ^ !Oracle.poison);
      let spans_path =
        Filename.concat (work_dir ()) (Printf.sprintf "spans-%s.tsv" !workload)
      in
      let run () =
        match (!workload, traced) with
        | "tpch_suite", false -> Olap.run_untraced (Olap.tpch_suite ~small:!small ~seed) ~seconds
        | "tpch_suite", true ->
            Olap.run_traced (Olap.tpch_suite ~small:!small ~seed) ~seconds ~spans_path
        | "adhoc_small", false ->
            Olap.run_untraced (Olap.adhoc_small ~small:!small ~seed) ~seconds
        | "adhoc_small", true ->
            Olap.run_traced (Olap.adhoc_small ~small:!small ~seed) ~seconds ~spans_path
        | "oltp_mixed", tr -> Oltp.run ~small:!small ~seed ~seconds ~traced:tr ~spans_path
        | _ -> usage ()
      in
      (match run () with
      | attempted, failed, metrics ->
          if traced then Printf.printf "spans: %s\n" spans_path;
          let metrics = if traced then complete metrics else metrics in
          print_result ~correct:true ~attempted ~failed metrics
      | exception Oracle_failure m ->
          Printf.printf "oracle failure: %s\n%!" m;
          exit 1)
  | [] -> usage ()
