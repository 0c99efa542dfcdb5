(* The load generator's side of the wire, and the server process's
   lifecycle: spawn the launcher, read its port, talk HTTP/1.1
   keep-alive over loopback, read its peak RSS, stop it and wait. *)

module Http = Serve.Http

type server = { pid : int; port : int }

(* Servers not yet stopped; whatever way the run ends, none outlives
   it. *)
let live : (int, unit) Hashtbl.t = Hashtbl.create 4

let () =
  at_exit (fun () ->
      Hashtbl.iter
        (fun pid () ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid : int * Unix.process_status)
          with Unix.Unix_error _ -> ())
        live)

(* Spawn [exe serve ...] and block until it prints [port=P]: the plan
   is loaded or compiled and the socket is listening by then. *)
let spawn ~exe args =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe
      (Array.of_list (exe :: "serve" :: args))
      Unix.stdin w Unix.stderr
  in
  Unix.close w;
  Hashtbl.replace live pid ();
  let ic = Unix.in_channel_of_descr r in
  let line = try Some (input_line ic) with End_of_file -> None in
  close_in ic;
  match line with
  | Some l when String.length l > 5 && String.sub l 0 5 = "port=" ->
    { pid; port = int_of_string (String.sub l 5 (String.length l - 5)) }
  | _ ->
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] pid : int * Unix.process_status);
    Hashtbl.remove live pid;
    failwith "server launcher exited before listening"

(* VmHWM of the server process, in MiB. *)
let peak_rss_mb s =
  let ic = open_in (Printf.sprintf "/proc/%d/status" s.pid) in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec find () =
    match input_line ic with
    | exception End_of_file -> failwith "no VmHWM in /proc status"
    | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
          float_of_int kb /. 1024.0)
    | _ -> find ()
  in
  find ()

let stop s =
  (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let _, status = Unix.waitpid [] s.pid in
  Hashtbl.remove live s.pid;
  match status with
  | Unix.WEXITED 0 -> ()
  | _ -> failwith "server did not exit cleanly"

type conn = { fd : Unix.file_descr; c : Http.conn }

let connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  { fd; c = Http.conn fd }

let close conn = try Unix.close conn.fd with Unix.Unix_error _ -> ()

type reply = {
  code : int;  (** 0 on a transport error *)
  body : string;
  recompiled : string option;
  ms : float;
}

let request conn ~meth ~path body =
  let req =
    Printf.sprintf "%s %s HTTP/1.1\r\nHost: perfbench\r\nContent-Length: %d\r\n\r\n%s"
      meth path (String.length body) body
  in
  let t0 = Stats.now () in
  let res =
    match
      let rec send off =
        if off < String.length req then
          send (off + Unix.write_substring conn.fd req off (String.length req - off))
      in
      send 0;
      Http.read_response conn.c
    with
    | r -> r
    | exception Unix.Unix_error (e, _, _) ->
      Error (Http.Torn (Unix.error_message e))
  in
  let ms = (Stats.now () -. t0) *. 1000.0 in
  match res with
  | Ok r ->
    {
      code = r.Http.code;
      body = r.Http.resp_body;
      recompiled = Http.resp_header r "x-minconn-recompiled-components";
      ms;
    }
  | Error e -> { code = 0; body = Http.read_error_name e; recompiled = None; ms }

let solve conn body = request conn ~meth:"POST" ~path:"/solve" body
let delta conn body = request conn ~meth:"POST" ~path:"/schema/delta" body
