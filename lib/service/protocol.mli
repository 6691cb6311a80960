(** The NDJSON request/response protocol (schema [nuop-rpc/1]).

    One JSON object per line in both directions.  A request carries an
    [id] (echoed verbatim in the response, [null] when absent), an [op]
    — one of [compile], [score], [devices], [stats], [ping] — an
    optional [deadline_ms], and op-specific parameters (circuit as QASM
    text or a generator spec, device name or snapshot path, stack
    options).  A response carries either a result document or a typed
    error; clients match responses to requests by [id], since a
    concurrent server completes jobs in whatever order its workers
    finish them. *)

val schema : string
(** ["nuop-rpc/1"]. *)

type op = Compile | Score | Devices | Stats | Ping

val op_name : op -> string
val op_of_string : string -> op option

type error_kind =
  | Bad_request  (** malformed JSON, unknown field value, bad QASM *)
  | Unsupported  (** an [op] outside the schema *)
  | Overloaded  (** bounded queue full — explicit backpressure *)
  | Timeout  (** [deadline_ms] elapsed before completion *)
  | Draining  (** server is shutting down and accepts no new work *)
  | Internal  (** execution failed; retries (if any) exhausted *)

val kind_name : error_kind -> string

type err = { kind : error_kind; message : string }

val err : error_kind -> ('a, unit, string, err) format4 -> 'a
(** [err kind fmt ...] builds an {!err} with a formatted message. *)

exception Transient of string
(** Raised by an op implementation to mark a failure worth a bounded
    retry with backoff (the only exception the server retries). *)

type request = {
  id : Njson.t;  (** echoed verbatim; [Null] when the field is absent *)
  op : op;
  deadline_ms : float option;
  body : Njson.t;  (** the whole request object, for op parameters *)
}

val parse : string -> (request, Njson.t * err) result
(** Parse one request line.  On failure the error carries whatever [id]
    could still be recovered ([Null] when the line is not even JSON) so
    the response remains correlatable.  Uses {!Njson.of_string_result}:
    malformed JSON yields a [Bad_request] locating the failure by line
    and column, never an exception. *)

val response_ok : id:Njson.t -> Njson.t -> string
(** One response line: [{"id":...,"ok":true,"result":...}]. *)

val response_error : id:Njson.t -> err -> string
(** One response line:
    [{"id":...,"ok":false,"error":{"kind":...,"message":...}}]. *)

(** {2 Body fields} — what the op parameter tables in {!Ops} are made of. *)

type _ kind =
  | Str : string -> string kind  (** a string and its default *)
  | Int : { default : int; min : int; max : int } -> int kind
  | Flag : bool kind  (** [false] unless set *)
  | Text : string option kind  (** absent unless set *)

val field : string -> 'a kind -> Njson.t -> ('a, err) result
(** [field key kind body] reads [body]'s [key] (absent or [null]: the
    default); a wrong type or an out-of-bounds value is a [Bad_request]
    naming [key] and the bound. *)

val unknown_field : known:string list -> Njson.t -> err option
(** A [Bad_request] for the first key of [body] that is neither in
    [known] nor an envelope key ([id], [op], [deadline_ms]). *)
